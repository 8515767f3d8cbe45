// Command benchmark is the repository benchmark: four workloads, each run
// end to end in a child process of its own, with an optional traced run
// that derives a per-layer ledger from spans around every layer call.
//
//	bash benchmark/run.sh --workload sweep-inorder --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh                      # all four workloads
//	bash benchmark/run.sh -compare base/*.json head/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics, and what each layer metric should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// processStart approximates the process start: setup_s counts from here.
var processStart = time.Now()

// setupSamples is how many cold setups an untraced run times (one per
// child process, the last one the measuring child); setup_s is their
// median.
const setupSamples = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, in turn)")
		seed         = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 25, "measured seconds per workload")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		out          = flag.String("out", "", "also write the full run records (samples, notes, metadata) as JSON to this file")
		spans        = flag.String("spans", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<seed>.spans.json)")
		compare      = flag.Bool("compare", false, "compare result files: -compare base/*.json head/*.json (grouped by directory)")
		bounds       = flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
		child        = flag.String("child", "", "internal: run one workload in this process (setup|measure)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *compare {
		code, err := runCompare(os.Stdout, *bounds, flag.Args())
		if err != nil {
			fatalf("compare: %v", err)
		}
		os.Exit(code)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, start: processStart}
	if *child != "" {
		os.Exit(runChild(*child, *workloadName, o))
	}
	var todo []workload
	if *workloadName == "" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		todo = []workload{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	recs, err := runParent(ctx, todo, o, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", *out, err)
		}
	}
	res := summary(recs)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runChild runs one workload in this process and prints its record as
// the last line of standard output.
func runChild(role, name string, o runOpts) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	o.setupOnly = role == "setup"
	rec, err := runWorkload(context.Background(), w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runParent runs each workload: cold setups in child processes of their
// own, then one measuring child. It prints each workload's metrics with
// unit and sample count as it finishes.
func runParent(ctx context.Context, todo []workload, o runOpts, w io.Writer) ([]*record, error) {
	var recs []*record
	for _, wl := range todo {
		m := newMeta(o.seed, o.seconds)
		if m.busy() {
			fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load %.2f exceeds the %d CPUs at the start of %s\n", m.LoadStart[0], m.NumCPU, wl.name)
		}
		spans := o.spans
		if o.trace && spans == "" {
			spans = defaultSpansPath(wl.name, o.seed)
		}
		var setups []float64
		if !o.trace {
			for i := 1; i < setupSamples; i++ {
				rec, err := spawn(ctx, "setup", wl.name, o, "")
				if err != nil {
					return nil, err
				}
				setups = append(setups, rec.SetupS...)
			}
		}
		rec, err := spawn(ctx, "measure", wl.name, o, spans)
		if err != nil {
			return nil, err
		}
		if !o.trace {
			rec.SetupS = append(setups, rec.SetupS...)
			rec.Metrics["setup_s"] = metricValue{median(rec.SetupS), "s"}
			rec.Samples["setup_s"] = len(rec.SetupS)
		}
		m.finish()
		rec.Meta = m
		report(w, rec, spans)
		recs = append(recs, rec)
	}
	return recs, nil
}

// spawn runs one child of this binary and decodes the record it prints.
func spawn(ctx context.Context, role, name string, o runOpts, spans string) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	limit := 60 * time.Second
	if role == "measure" {
		limit += time.Duration(2 * o.seconds * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", role, "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-spans", spans)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, role, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return nil, fmt.Errorf("%s %s: reading result: %w", name, role, err)
	}
	return &rec, nil
}

// report prints a record's metrics by name, unit, workload and sample
// count.
func report(w io.Writer, rec *record, spans string) {
	mode := "end to end"
	if rec.Trace {
		mode = "per layer, spans in " + spans
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s  (rev %s)\n", rec.Workload, rec.Seed, rec.Seconds, mode, rec.Meta.Revision)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		samples := ""
		if s, ok := rec.Samples[n]; ok {
			samples = fmt.Sprintf("n=%d", s)
		}
		fmt.Fprintf(w, "   %-36s %16.6g %-12s %-14s %s\n", n, v.Value, v.Unit, rec.Workload, samples)
	}
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "   correct=%t attempted=%d failed=%d  load %.2f→%.2f  %.1fs wall\n",
		rec.Correct, rec.Attempted, rec.Failed, rec.Meta.LoadStart[0], rec.Meta.LoadEnd[0], rec.Meta.DurationS)
}

// result is the one-line summary the last line of output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary folds the records into the result line; with several
// workloads each metric name is prefixed by its workload.
func summary(recs []*record) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range recs {
		res.Correct = res.Correct && rec.Correct
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		for n, v := range rec.Metrics {
			if len(recs) > 1 {
				n = rec.Workload + "." + n
			}
			res.Metrics[n] = v
		}
	}
	return res
}

// loadRecords reads the records of one -out file.
func loadRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return recs, nil
}
