// Command pcbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment compiles the relevant benchmarks,
// simulates them on the appropriate machine configurations, verifies the
// computed results against Go reference implementations, and prints the
// table/figure data.
//
// The experiment menu comes from the shared registry in
// internal/experiments (also served over HTTP by pcserved); run with an
// unknown -exp value to list every experiment with a description.
//
// Sweeps execute their independent cells in parallel (the -j flag;
// default GOMAXPROCS) with results merged in submission order, so the
// output bytes are identical at any width.
//
// Performance tooling: -cpuprofile/-memprofile write pprof profiles of
// the run, and `-exp perf -out BENCH_sim.json` records the simulator's
// own throughput measurements in machine-readable form. CI regression
// gating uses `-exp perf -floor lud=150000,sweep@j2=500,...` to fail
// the run when a bench's simcycles/s drops below a checked-in floor or
// the warm parallel sweep exceeds a wall-clock ceiling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pcoup/internal/experiments"
	_ "pcoup/internal/fleet" // registers the fleetfair experiment
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	_ "pcoup/internal/progfuzz" // registers the fuzzdiff experiment
)

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+experiments.UsageNames()+")")
	jobs := flag.Int("j", 0, "parallel cell-execution width for sweeps (0: GOMAXPROCS, 1: sequential); output bytes are identical at any width")
	machinePath := flag.String("machine", "", "machine configuration JSON file (default: baseline; Figure 8 always sweeps its own machines)")
	asJSON := flag.Bool("json", false, "emit raw experiment rows as JSON instead of formatted tables")
	outPath := flag.String("out", "", "also write the experiment rows as JSON to this file (e.g. -exp perf -out BENCH_sim.json)")
	floor := flag.String("floor", "", "comma-separated bench=minCyclesPerSec pairs checked against the perf experiment's rows; exit 1 if any bench falls below its floor (e.g. -exp perf -floor lud=150000,lud@Slow=1000000)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	os.Exit(run(*exp, *jobs, *machinePath, *asJSON, *outPath, *floor, *cpuProfile, *memProfile))
}

// run holds the tool body so deferred profile writers execute before the
// process exits.
func run(exp string, jobs int, machinePath string, asJSON bool, outPath, floor, cpuProfile, memProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcbench:", err)
			}
		}()
	}

	// A nil base config selects each driver's own default (the baseline
	// machine for the paper's experiments; threadcap defaults to the
	// long-latency Mem1 machine).
	var baseCfg *machine.Config
	if machinePath != "" {
		var err error
		baseCfg, err = machine.Load(machinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
	}

	var list []experiments.Experiment
	if exp == "all" {
		for _, e := range experiments.Registry() {
			if !e.SkipInAll {
				list = append(list, e)
			}
		}
	} else {
		e, ok := experiments.Lookup(exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n\nexperiments:\n", experiments.UnknownExperimentError(exp))
			for _, e := range experiments.Registry() {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.Name, e.Brief)
			}
			return 1
		}
		list = []experiments.Experiment{*e}
	}

	rc := &experiments.RunContext{Ctx: parexec.WithLimit(context.Background(), jobs), Cfg: baseCfg}
	allRows := make(map[string]any, len(list))
	for i, e := range list {
		if i > 0 {
			fmt.Println()
		}
		rows, err := e.Run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %s: %v\n", e.Name, err)
			return 1
		}
		allRows[e.Name] = rows
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				fmt.Fprintf(os.Stderr, "pcbench: %s: %v\n", e.Name, err)
				return 1
			}
			continue
		}
		e.Write(os.Stdout, baseCfg, rows)
	}

	if outPath != "" {
		// A single experiment writes its rows directly; a multi-experiment
		// run writes a name-keyed object.
		var payload any = allRows
		if len(list) == 1 {
			payload = allRows[list[0].Name]
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
	}

	if floor != "" {
		if err := checkFloors(floor, allRows); err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			return 1
		}
	}
	return 0
}

// checkFloors enforces -floor against the perf experiment's rows. Two
// pair shapes are accepted:
//
//	bench=minCyclesPerSec  — a throughput floor on a single-cell row
//	                         (e.g. lud=150000)
//	sweep@jN=maxMs         — a wall-clock ceiling on the warm Table 2
//	                         parallel-sweep row at width N
//	                         (e.g. sweep@j2=500)
//
// A missing perf run or an unknown row name is an error — a floor that
// silently checks nothing is worse than no floor.
func checkFloors(spec string, allRows map[string]any) error {
	perf, ok := allRows["perf"].(*experiments.PerfResult)
	if !ok {
		return fmt.Errorf("-floor requires the perf experiment (run with -exp perf or -exp all)")
	}
	byName := make(map[string]experiments.PerfBench, len(perf.Benches))
	for _, b := range perf.Benches {
		byName[b.Bench] = b
	}
	byJobs := make(map[int]experiments.ParallelSweepRow, len(perf.ParallelSweep))
	for _, p := range perf.ParallelSweep {
		byJobs[p.Jobs] = p
	}
	var failures []string
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, limStr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("-floor: malformed pair %q (want bench=minCyclesPerSec or sweep@jN=maxMs)", pair)
		}
		lim, err := strconv.ParseFloat(limStr, 64)
		if err != nil || lim <= 0 {
			return fmt.Errorf("-floor: bad threshold in %q", pair)
		}
		if jobsStr, found := strings.CutPrefix(name, "sweep@j"); found {
			jobs, err := strconv.Atoi(jobsStr)
			if err != nil {
				return fmt.Errorf("-floor: bad width in %q (want sweep@jN=maxMs)", pair)
			}
			row, ok := byJobs[jobs]
			if !ok {
				return fmt.Errorf("-floor: no parallel-sweep row at width %d", jobs)
			}
			if row.WarmMs > lim {
				failures = append(failures,
					fmt.Sprintf("sweep@j%d: %.1f ms warm Table 2 above ceiling %.1f ms", jobs, row.WarmMs, lim))
			}
			continue
		}
		b, ok := byName[name]
		if !ok {
			return fmt.Errorf("-floor: no perf row named %q", name)
		}
		if b.CyclesPerSec < lim {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f simcycles/s below floor %.0f", name, b.CyclesPerSec, lim))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("throughput floor violated:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
