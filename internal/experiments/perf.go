package experiments

// The perf experiment measures the simulator itself rather than the
// simulated machine: per-benchmark kernel throughput (simulated cycles
// per wall-clock second under Coupled mode), the wall-clock cost of the
// full Table 2 sweep (first pass compiles, warm passes hit the compiled-
// program cache), and amortized heap allocations per simulated cycle.
// `pcbench -exp perf -json` emits the machine-readable form recorded in
// BENCH_sim.json.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// PerfBench is one benchmark's kernel throughput under Coupled mode.
// CyclesPerSec is measured with the event core (the default kernel);
// TickingCyclesPerSec re-measures the same cell with cycle skipping
// disabled, making each row a before/after pair.
type PerfBench struct {
	Bench        string  `json:"bench"`
	Cycles       int64   `json:"cycles"`         // simulated cycles per run
	Runs         int     `json:"runs"`           // timed repetitions
	NsPerRun     float64 `json:"ns_per_run"`     // wall-clock per run
	CyclesPerSec float64 `json:"cycles_per_sec"` // simulated cycles per second
	// TickingCyclesPerSec is the same cell under the ticking kernel
	// (sim.WithCycleSkipping(false)); Speedup = CyclesPerSec over it.
	TickingCyclesPerSec float64 `json:"ticking_cycles_per_sec,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
}

// ParallelSweepRow is the warm Table 2 sweep wall-clock at one parallel
// cell-execution width (the -j value), with its speedup over width 1.
// The rows make BENCH_sim.json record per-core scaling of the sweep
// engine on the measuring host.
type ParallelSweepRow struct {
	Jobs    int     `json:"jobs"`
	WarmMs  float64 `json:"warm_ms"`
	Speedup float64 `json:"speedup"`
}

// ProgCacheTraffic snapshots the compiled-program cache's counters at
// the end of the perf run: how many lookups the sweeps made and how few
// distinct compiles (fills) served them.
type ProgCacheTraffic struct {
	Lookups int64 `json:"lookups"`
	Fills   int64 `json:"fills"`
}

// PerfResult is the perf experiment's machine-readable output.
type PerfResult struct {
	// GOMAXPROCS and NumCPU record the measuring host's parallelism so
	// BENCH_*.json trajectories stay comparable across machines: a
	// parallel-sweep speedup is only meaningful relative to the cores
	// that were available.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`

	Benches []PerfBench `json:"benches"`
	// Table2FirstMs is the wall-clock of the first full Table 2 sweep in
	// this process (includes any compiles the program cache has not seen).
	Table2FirstMs float64 `json:"table2_first_ms"`
	// Table2WarmMs is the best warm-cache sweep wall-clock.
	Table2WarmMs float64 `json:"table2_warm_ms"`
	// ParallelSweep measures the warm Table 2 sweep at explicit engine
	// widths (1, 2, 4), independent of the process -j default.
	ParallelSweep []ParallelSweepRow `json:"parallel_sweep"`
	// ProgCache records compiled-program cache traffic over the run.
	ProgCache ProgCacheTraffic `json:"prog_cache"`
	// AllocsPerCycle is amortized heap allocations per simulated cycle
	// over repeated matrix/Coupled runs (includes Sim construction).
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// perfReps picks a repetition count that keeps each timing section
// around ~100ms without unbounded work on slow machines.
func perfReps(perRun time.Duration) int {
	if perRun <= 0 {
		return 50
	}
	n := int(100 * time.Millisecond / perRun)
	if n < 3 {
		return 3
	}
	if n > 200 {
		return 200
	}
	return n
}

// Perf runs the simulator performance measurements on cfg (nil = the
// baseline machine).
func Perf(cfg *machine.Config) (*PerfResult, error) {
	return PerfCtx(context.Background(), cfg)
}

// PerfCtx is Perf under a cancellation context.
func PerfCtx(ctx context.Context, cfg *machine.Config) (*PerfResult, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	res := &PerfResult{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	// Table 2 sweep wall-clock: the first pass compiles whatever the
	// program cache is missing; subsequent passes are fully warm.
	start := time.Now()
	if _, err := Table2Ctx(ctx, cfg); err != nil {
		return nil, err
	}
	res.Table2FirstMs = float64(time.Since(start).Nanoseconds()) / 1e6
	res.Table2WarmMs = res.Table2FirstMs
	for i := 0; i < 3; i++ {
		start = time.Now()
		if _, err := Table2Ctx(ctx, cfg); err != nil {
			return nil, err
		}
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < res.Table2WarmMs {
			res.Table2WarmMs = ms
		}
	}

	// Parallel sweep scaling: the same warm sweep at explicit engine
	// widths. Width 1 is the sequential baseline every speedup is
	// relative to; the 2- and 4-wide rows show how close the engine gets
	// to linear scaling on this host (see GOMAXPROCS/NumCPU — on a
	// single-core host all widths collapse to ~1x by construction).
	var seqWarmMs float64
	for _, jobs := range []int{1, 2, 4} {
		jctx := parexec.WithLimit(ctx, jobs)
		row := ParallelSweepRow{Jobs: jobs}
		for i := 0; i < 3; i++ {
			start = time.Now()
			if _, err := Table2Ctx(jctx, cfg); err != nil {
				return nil, err
			}
			if ms := float64(time.Since(start).Nanoseconds()) / 1e6; i == 0 || ms < row.WarmMs {
				row.WarmMs = ms
			}
		}
		if jobs == 1 {
			seqWarmMs = row.WarmMs
		}
		row.Speedup = seqWarmMs / row.WarmMs
		res.ParallelSweep = append(res.ParallelSweep, row)
	}

	// Per-benchmark kernel throughput under Coupled mode: simulation
	// only (the program is cached; verification is excluded). Each cell
	// is measured twice — event core, then ticking kernel — so the rows
	// are before/after pairs. The @Mem2 and @Slow cells put lud on the
	// statistical long-latency memories, where most cycles are idle and
	// the event core's jumps dominate.
	perfCells := []struct {
		name   string
		bench  string
		mem    *machine.MemoryModel
		dyn    *machine.DynamicModel
		traced bool
	}{
		{"matrix", "matrix", nil, nil, false},
		{"fft", "fft", nil, nil, false},
		{"model", "model", nil, nil, false},
		{"lud", "lud", nil, nil, false},
		{"lud@Mem2", "lud", &machine.Mem2, nil, false},
		{"lud@Slow", "lud", &machine.MemSlow, nil, false},
		// The CoupledDyn cell: the window, predictor, and prefetcher all
		// live on the issue path, so this row guards the dynamic
		// subsystem's overhead (and its event-core compatibility — the
		// skip horizons must still engage on the idle stretches).
		{"lud@Dyn", "lud", &machine.Mem2, &machine.DynAll, false},
		// The traced cell: a JSON tracer (which turns stall attribution
		// on) per run. Tracing must keep the event core's skips, so this
		// row stays several times faster than its ticking twin.
		{"lud@Slow+trace", "lud", &machine.MemSlow, nil, true},
	}
	for _, c := range perfCells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cellCfg := cfg
		if c.mem != nil {
			cellCfg = cfg.WithMemory(*c.mem)
		}
		if c.dyn != nil {
			cellCfg = cellCfg.WithDynamic(*c.dyn)
		}
		_, prog, _, err := compileCached(c.bench, sourceKind(COUPLED), 0, cellCfg, compiler.Options{Mode: compilerMode(COUPLED)})
		if err != nil {
			return nil, err
		}
		pb := PerfBench{Bench: c.name}
		for _, ticking := range []bool{false, true} {
			opts := func() []sim.Option {
				opts := []sim.Option{sim.WithCycleSkipping(!ticking)}
				if c.traced {
					opts = append(opts, sim.WithObserver(sim.NewJSONTracer(cellCfg)))
				}
				return opts
			}
			cycles, elapsed, err := timedRun(cellCfg, prog, opts()...)
			if err != nil {
				return nil, fmt.Errorf("perf %s: %w", c.name, err)
			}
			reps := perfReps(elapsed)
			start = time.Now()
			for i := 0; i < reps; i++ {
				if _, _, err := timedRun(cellCfg, prog, opts()...); err != nil {
					return nil, fmt.Errorf("perf %s: %w", c.name, err)
				}
			}
			perRun := float64(time.Since(start).Nanoseconds()) / float64(reps)
			cps := float64(cycles) / (perRun / 1e9)
			if ticking {
				pb.TickingCyclesPerSec = cps
			} else {
				pb.Cycles, pb.Runs, pb.NsPerRun, pb.CyclesPerSec = cycles, reps, perRun, cps
			}
		}
		pb.Speedup = pb.CyclesPerSec / pb.TickingCyclesPerSec
		res.Benches = append(res.Benches, pb)
	}

	// Amortized allocations per simulated cycle (matrix/Coupled).
	_, prog, _, err := compileCached("matrix", sourceKind(COUPLED), 0, cfg, compiler.Options{Mode: compilerMode(COUPLED)})
	if err != nil {
		return nil, err
	}
	cycles, _, err := timedRun(cfg, prog) // warm the memory-image pool
	if err != nil {
		return nil, err
	}
	const allocReps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocReps; i++ {
		if _, _, err := timedRun(cfg, prog); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	res.AllocsPerCycle = float64(after.Mallocs-before.Mallocs) / (float64(cycles) * allocReps)

	lookups, fills := ProgCacheStats()
	res.ProgCache = ProgCacheTraffic{Lookups: lookups, Fills: fills}
	return res, nil
}

// timedRun is one cell's simulation work: build, run, recycle.
func timedRun(cfg *machine.Config, prog *isa.Program, opts ...sim.Option) (int64, time.Duration, error) {
	start := time.Now()
	s, err := sim.New(cfg, prog, opts...)
	if err != nil {
		return 0, 0, err
	}
	r, err := s.Run(0)
	if err != nil {
		return 0, 0, err
	}
	s.Release()
	return r.Cycles, time.Since(start), nil
}

// WritePerf renders the perf measurements for terminals.
func WritePerf(w io.Writer, res *PerfResult) {
	fmt.Fprintln(w, "Simulator performance (this build, this machine):")
	fmt.Fprintf(w, "  %-14s %10s %8s %14s %14s %8s\n", "bench", "cycles", "runs", "simcycles/s", "ticking", "speedup")
	for _, b := range res.Benches {
		fmt.Fprintf(w, "  %-14s %10d %8d %14.0f", b.Bench, b.Cycles, b.Runs, b.CyclesPerSec)
		if b.TickingCyclesPerSec > 0 {
			fmt.Fprintf(w, " %14.0f %7.2fx", b.TickingCyclesPerSec, b.Speedup)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  Table 2 sweep: %.1f ms first pass, %.1f ms warm (compiled-program cache)\n",
		res.Table2FirstMs, res.Table2WarmMs)
	if len(res.ParallelSweep) > 0 {
		fmt.Fprintf(w, "  parallel sweep (warm Table 2; host: GOMAXPROCS=%d, %d CPUs):\n",
			res.GOMAXPROCS, res.NumCPU)
		for _, p := range res.ParallelSweep {
			fmt.Fprintf(w, "    -j %d: %8.1f ms  %5.2fx\n", p.Jobs, p.WarmMs, p.Speedup)
		}
	}
	fmt.Fprintf(w, "  program cache: %d lookups, %d fills\n",
		res.ProgCache.Lookups, res.ProgCache.Fills)
	fmt.Fprintf(w, "  allocations:   %.3f per simulated cycle (matrix/Coupled, steady state)\n",
		res.AllocsPerCycle)
}
