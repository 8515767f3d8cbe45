package sim_test

// Steady-state kernel benchmarks. Run with:
//
//	go test ./internal/sim/ -bench . -benchmem
//
// Custom metrics: simcycles/s is simulated cycles per wall-clock second
// (higher is better); allocs/cycle is amortized heap allocations per
// simulated cycle including Sim construction (the regression budget is
// enforced by TestAllocBudget).

import (
	"runtime"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

// compileFor compiles one benchmark variant on the baseline machine.
func compileFor(tb testing.TB, benchName string, kind bench.SourceKind, mode compiler.Mode) (*machine.Config, *isa.Program) {
	tb.Helper()
	return compileOn(tb, machine.Baseline(), benchName, kind, mode)
}

// compileOn compiles one benchmark variant on an arbitrary machine.
func compileOn(tb testing.TB, cfg *machine.Config, benchName string, kind bench.SourceKind, mode compiler.Mode) (*machine.Config, *isa.Program) {
	tb.Helper()
	bm, err := bench.Get(benchName, kind)
	if err != nil {
		tb.Fatal(err)
	}
	prog, _, err := compiler.Compile(bm.Source, cfg, compiler.Options{Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, prog
}

// runOnce builds a Sim, runs it to completion, and recycles its memory
// image — the exact per-cell work of a sweep with a warm program cache.
func runOnce(tb testing.TB, cfg *machine.Config, prog *isa.Program, opts ...sim.Option) int64 {
	return runResult(tb, cfg, prog, opts...).Cycles
}

// runResult runs one cell to completion and returns its result.
func runResult(tb testing.TB, cfg *machine.Config, prog *isa.Program, opts ...sim.Option) *sim.Result {
	s, err := sim.New(cfg, prog, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := s.Run(0)
	if err != nil {
		tb.Fatal(err)
	}
	s.Release()
	return res
}

// BenchmarkSimulator measures the cycle kernel on matrix under Coupled
// mode (multithreaded issue, writeback arbitration, memory traffic).
func BenchmarkSimulator(b *testing.B) {
	cfg, prog := compileFor(b, "matrix", bench.Threaded, compiler.Unrestricted)
	cycles := runOnce(b, cfg, prog) // warm the memory-image pool
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, cfg, prog)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(cycles) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/cycle")
}

// BenchmarkEventCore measures the cycle-skipping win on memory-bound
// cells: each case runs under the event core and under the ticking
// kernel (WithCycleSkipping(false)); both report simcycles/s for direct
// before/after comparison. lud@Mem2 (10% miss, 20-100 cycle penalty) is
// the paper's memory-bound regime; lud@Slow (200-1000 cycle tail) is the
// latency-dominated scaling regime and the event core's best case;
// matrix@Min is the busy-machine case that must not regress.
func BenchmarkEventCore(b *testing.B) {
	cases := []struct {
		name  string
		bench string
		cfg   *machine.Config
	}{
		{"lud@Min", "lud", machine.Baseline()},
		{"lud@Mem2", "lud", machine.Baseline().WithMemory(machine.Mem2)},
		{"lud@Slow", "lud", machine.Baseline().WithMemory(machine.MemSlow)},
		{"matrix@Min", "matrix", machine.Baseline()},
	}
	kernels := []struct {
		name string
		opts []sim.Option
	}{
		{"event", nil},
		{"ticking", []sim.Option{sim.WithCycleSkipping(false)}},
	}
	for _, c := range cases {
		cfg, prog := compileOn(b, c.cfg, c.bench, bench.Threaded, compiler.Unrestricted)
		for _, k := range kernels {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				cycles := runOnce(b, cfg, prog, k.opts...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runOnce(b, cfg, prog, k.opts...)
				}
				b.StopTimer()
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
			})
		}
	}
}

// BenchmarkModes times one full run of matrix under each machine mode.
func BenchmarkModes(b *testing.B) {
	cases := []struct {
		name string
		kind bench.SourceKind
		mode compiler.Mode
	}{
		{"SEQ", bench.Sequential, compiler.SingleCluster},
		{"STS", bench.Sequential, compiler.Unrestricted},
		{"TPE", bench.Threaded, compiler.SingleCluster},
		{"Coupled", bench.Threaded, compiler.Unrestricted},
		{"Ideal", bench.Ideal, compiler.Unrestricted},
	}
	for _, c := range cases {
		b.Run("matrix/"+c.name, func(b *testing.B) {
			cfg, prog := compileFor(b, "matrix", c.kind, c.mode)
			cycles := runOnce(b, cfg, prog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce(b, cfg, prog)
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}
