package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pcoup/internal/parexec"
)

var update = flag.Bool("update", false, "rewrite testdata/cycles_seed1.json from the current simulator")

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, reportable (10 samples beyond)", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples = %v reportable; want not (only 9 beyond)", v)
	}
	if v, ok := percentile(xs, 0.5); v != 500 || !ok {
		t.Errorf("p50 = %v, %v; want 500, reportable", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples reportable")
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 5.5, 4.0, 1.2}, 1.95, 4.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7, 1, 3, 9, 4, 4, 2, 8}, 2.25, 7.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "sim.new", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "sim.run", StartNS: 20, EndNS: 80},
		{ID: 4, Parent: 1, Name: "overlap", StartNS: 70, EndNS: 90}, // overlaps sim.run by 10
		{ID: 5, Parent: 3, Name: "inner", StartNS: 30, EndNS: 40},
		{ID: 6, Parent: 1, Name: "beyond", StartNS: 95, EndNS: 120}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - (10 + 60 + 10 + 5), 2: 10, 3: 50, 4: 20, 5: 10, 6: 25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	agg := aggregate(spans)
	if a := agg["sim.run"]; a.n != 1 || a.total != 60 || a.self != 50 {
		t.Errorf("aggregate sim.run = %+v", a)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		head   []float64
		better string
		want   string
	}{
		{"same", base, "higher", "unchanged"},
		{"faster", shift(base, 1.2), "higher", "improved"},
		{"slower beyond bound", shift(base, 0.8), "higher", "worse"},
		{"slower within bound", shift(base, 0.97), "higher", "unchanged"},
		{"latency up beyond bound", shift(base, 1.2), "lower", "worse"},
		{"latency down", shift(base, 0.8), "lower", "improved"},
		{"too few pairs to claim", shift(base[:5], 1.2), "higher", "unchanged"},
		{"noisy", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, "higher", "unresolved"},
	} {
		if got := judge(base, c.head, c.better, 0.1); got.verdict != c.want {
			t.Errorf("%s: verdict %s (won %.2f, change %+.3f), want %s", c.name, got.verdict, got.won, got.change, c.want)
		}
	}
}

func TestCellSetsDistinct(t *testing.T) {
	check := func(name string, cells []cellSpec, want int) {
		keys, labels := map[string]bool{}, map[string]bool{}
		for _, c := range cells {
			h, err := c.cfg.Hash()
			if err != nil {
				t.Fatal(err)
			}
			k := c.bench + "/" + string(c.mode) + "/" + h
			if keys[k] || labels[c.label] {
				t.Errorf("%s: duplicate cell %s", name, c.label)
			}
			keys[k], labels[c.label] = true, true
		}
		if len(cells) != want {
			t.Errorf("%s: %d cells, want %d", name, len(cells), want)
		}
	}
	in, err := inorderCells(1)
	if err != nil {
		t.Fatal(err)
	}
	// 18 Table 2 + 20 Figure 6 (Full repeats Table 2's Coupled) + 64 Figure 8.
	check("sweep-inorder", in, 18+16+64)
	for seed := int64(1); seed <= 3; seed++ {
		lat, err := latencyCells(seed)
		if err != nil {
			t.Fatal(err)
		}
		check("sweep-latency", lat, 72)
	}
}

// TestGoldenCounts checks the golden file against the simulator; with
// -update it rewrites the file, choosing the program corpus afresh.
func TestGoldenCounts(t *testing.T) {
	ctx := context.Background()
	all := map[string]map[string]counts{}
	for _, w := range workloads {
		if *update && w.name == "programs" {
			corpus, err := admitCorpus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			all[w.name] = corpus
			continue
		}
		units, err := w.units(ctx, 1, newTracer(w.name))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]counts, len(units))
		err = parexec.Run(ctx, len(units), func(i int) error {
			o, err := simulate(ctx, newTracer(w.name), units[i])
			if err == nil {
				got[i] = counts{Cycles: o.res.Cycles, Ops: o.res.Ops}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		all[w.name] = map[string]counts{}
		for i, u := range units {
			all[w.name][u.label] = got[i]
		}
	}
	if *update {
		if err := writeGolden("testdata/cycles_seed1.json", all); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		want, err := goldenCounts(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if w.name != "programs" && len(want) != len(all[w.name]) {
			t.Errorf("%s: golden file holds %d simulations, the workload %d", w.name, len(want), len(all[w.name]))
		}
		for label, c := range all[w.name] {
			if want[label] != c {
				t.Errorf("%s %s: simulator counts %+v, golden %+v", w.name, label, c, want[label])
			}
		}
	}
}

// writeGolden writes the golden file with one simulation per line.
func writeGolden(path string, all map[string]map[string]counts) error {
	var b strings.Builder
	b.WriteString("{\n")
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		fmt.Fprintf(&b, "  %q: {\n", n)
		labels := make([]string, 0, len(all[n]))
		for l := range all[n] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for j, l := range labels {
			c := all[n][l]
			fmt.Fprintf(&b, "    %q: {\"cycles\": %d, \"ops\": %d}", l, c.Cycles, c.Ops)
			if j < len(labels)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  }")
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	E2E []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	compare := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(file), len(defs))
		}
		for i := 0; i < min(len(file), len(defs)); i++ {
			if d := defs[i]; file[i].Name != d.name || file[i].Unit != d.unit || file[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, file[i], d)
			}
		}
	}
	compare("end_to_end", f.E2E, e2eMetrics)
	compare("per_layer", f.PerLayer, layerMetrics)
}

// TestSmoke runs every workload briefly, untraced and traced: no
// operation may fail, and the metrics emitted must be exactly those
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	names := func(list []struct{ Name, Unit, Better string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(context.Background(), w, runOpts{seed: 1, seconds: 0.3, trace: traced, start: time.Now()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d: %v", w.name, traced, rec.Attempted, rec.Failed, rec.Errors)
			}
			var got []string
			for n := range rec.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			want := names(f.PerLayer)
			if !traced {
				want = names(f.E2E)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t: metrics %v, want %v", w.name, traced, got, want)
			}
		}
	}
}
