// Package experiments reproduces the paper's evaluation (Section 4):
// every table and figure is regenerated by a driver in this package,
// running the four benchmarks through the compiler and simulator under
// the five machine modes, the restricted-communication configurations,
// the memory latency models, and the function-unit mix sweep.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

// Mode is one of the paper's five machine organizations.
type Mode string

const (
	// SEQ: single thread scheduled onto one cluster.
	SEQ Mode = "SEQ"
	// STS: single thread, all function units (VLIW-like).
	STS Mode = "STS"
	// IDEAL: single thread, fully unrolled and statically scheduled.
	IDEAL Mode = "Ideal"
	// TPE: thread per element, each thread pinned to one cluster.
	TPE Mode = "TPE"
	// COUPLED: multiple threads, unrestricted unit use.
	COUPLED Mode = "Coupled"
)

// Modes lists all machine modes in the paper's order.
func Modes() []Mode { return []Mode{SEQ, STS, TPE, COUPLED, IDEAL} }

// ParseMode converts a mode name (case-insensitive: "seq", "Coupled",
// "ideal", ...) into a Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if strings.EqualFold(string(m), s) {
			return m, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown mode %q", s)
}

// sourceKind maps a machine mode to the benchmark source variant it runs.
func sourceKind(m Mode) bench.SourceKind {
	switch m {
	case SEQ, STS:
		return bench.Sequential
	case IDEAL:
		return bench.Ideal
	default:
		return bench.Threaded
	}
}

// compilerMode maps a machine mode to the compiler's cluster restriction.
func compilerMode(m Mode) compiler.Mode {
	switch m {
	case SEQ, TPE:
		return compiler.SingleCluster
	default:
		return compiler.Unrestricted
	}
}

// CompilerMode maps a machine mode to the compiler's cluster
// restriction. Exported for consumers compiling arbitrary user programs
// (the program job path, progfuzz's differential) rather than the
// built-in benchmarks, which have no per-mode source variants to select.
func CompilerMode(m Mode) compiler.Mode { return compilerMode(m) }

// ModeSupported reports whether the benchmark has the source variant the
// mode requires (LUD and Model have no Ideal variant).
func ModeSupported(benchName string, m Mode) bool {
	if m == IDEAL {
		return bench.HasIdeal(benchName)
	}
	return true
}

// cell identifies one (benchmark, mode, config) execution of a sweep.
type cell struct {
	bench string
	mode  Mode
}

// benchModeCells enumerates benchmark x mode combinations that exist.
func benchModeCells(modes []Mode) []cell {
	var out []cell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, m := range modes {
			if ModeSupported(b, m) {
				out = append(out, cell{b, m})
			}
		}
	}
	return out
}

// Run compiles and simulates one (benchmark, mode, machine) combination,
// verifying the computed results against the Go reference.
type Run struct {
	Bench string
	Mode  Mode
	Cfg   *machine.Config

	Cycles int64
	Result *sim.Result
	Diags  *compiler.Diagnostics
	Prog   *isa.Program
}

// Utilization returns average operations per cycle for a unit class.
func (r *Run) Utilization(k machine.UnitKind) float64 { return r.Result.Utilization(k) }

// RunContext carries cross-cutting execution state through the
// experiment drivers: the cancellation context governing every cell's
// simulation and the base machine configuration. It is the unit of work
// handed to registry runners by pcbench and by the pcserved job workers.
type RunContext struct {
	// Ctx cancels or deadlines the run; nil means context.Background().
	Ctx context.Context
	// Cfg is the base machine configuration; nil selects each driver's
	// default (the paper's baseline).
	Cfg *machine.Config
}

// Context returns the effective context.
func (rc *RunContext) Context() context.Context {
	if rc == nil || rc.Ctx == nil {
		return context.Background()
	}
	return rc.Ctx
}

// Config returns the effective base configuration (may be nil: drivers
// default to the baseline machine).
func (rc *RunContext) Config() *machine.Config {
	if rc == nil {
		return nil
	}
	return rc.Cfg
}

// Execute runs one experiment cell. Extra simulator options (e.g.
// sim.WithStallAttribution for the stalls report) apply on top of the
// cell's configuration.
func Execute(benchName string, mode Mode, cfg *machine.Config, opts ...sim.Option) (*Run, error) {
	return ExecuteCtx(context.Background(), benchName, mode, cfg, opts...)
}

// ExecuteCtx is Execute with a cancellation context threaded into the
// simulator's cycle loop: cancelling ctx aborts the cell's simulation
// within a few thousand simulated cycles.
func ExecuteCtx(ctx context.Context, benchName string, mode Mode, cfg *machine.Config, opts ...sim.Option) (*Run, error) {
	return runCell(ctx, benchName, mode, cfg, cellOpts{sim: opts})
}

// cellOpts is what a sweep's cells vary beyond (benchmark, mode,
// machine).
type cellOpts struct {
	size   int          // problem size; 0 = the benchmark's default
	unroll int          // compiler.Options.AutoUnroll
	sim    []sim.Option // applied on top of the cell's configuration
	// read, when set, sees the verified run and its final memory image
	// before the image is recycled.
	read func(r *Run, peek bench.Peek)
}

// runCell is the one compile → simulate → verify → release sequence
// behind every benchmark cell of every experiment.
func runCell(ctx context.Context, benchName string, mode Mode, cfg *machine.Config, o cellOpts) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fail := func(err error) (*Run, error) {
		return nil, fmt.Errorf("experiments: %s/%s: %w", benchName, mode, err)
	}
	copts := compiler.Options{Mode: compilerMode(mode), AutoUnroll: o.unroll}
	b, prog, diags, err := compileCached(benchName, sourceKind(mode), o.size, cfg, copts)
	if err != nil {
		return fail(err)
	}
	simOpts := make([]sim.Option, 0, len(o.sim)+1)
	simOpts = append(simOpts, o.sim...)
	simOpts = append(simOpts, sim.WithContext(ctx))
	s, err := sim.New(cfg, prog, simOpts...)
	if err != nil {
		return fail(err)
	}
	res, err := s.Run(0)
	if err != nil {
		return fail(err)
	}
	peek := peeker(s, prog)
	if err := b.Verify(peek); err != nil {
		return fail(fmt.Errorf("wrong result: %w", err))
	}
	r := &Run{
		Bench: benchName, Mode: mode, Cfg: cfg,
		Cycles: res.Cycles, Result: res, Diags: diags, Prog: prog,
	}
	if o.read != nil {
		o.read(r, peek)
	}
	// The memory image has had its last read; recycle its backing so
	// sweeps do not allocate a fresh image per cell.
	s.Release()
	return r, nil
}

// peeker builds a bench.Peek over the simulator's final memory image.
func peeker(s *sim.Sim, prog *isa.Program) bench.Peek {
	addrs := map[string]int64{}
	for _, d := range prog.Data {
		addrs[d.Name] = d.Addr
	}
	return func(global string, off int64) (isa.Value, bool) {
		base, ok := addrs[global]
		if !ok {
			return isa.Value{}, false
		}
		v, _ := s.Memory().Peek(base + off)
		return v, true
	}
}
