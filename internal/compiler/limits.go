package compiler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// Limits bounds the resources a single compilation may consume. The
// compiler macro-expands procedures and unrolls loops, so small sources
// can demand large amounts of compile work; services compiling untrusted
// programs must cap every dimension. Zero values leave a dimension
// unlimited (sexpr's stack-safety nesting ceiling still applies).
type Limits struct {
	// MaxSourceBytes bounds the raw source length.
	MaxSourceBytes int
	// MaxNodes bounds the number of parse-tree nodes.
	MaxNodes int
	// MaxDepth bounds list nesting in the source.
	MaxDepth int
	// MaxThreads bounds the number of thread segments the program carves
	// out (fork sites, forall-static iterations, runtime forall workers).
	MaxThreads int
	// MaxIROps bounds the total IR operations across all segments after
	// lowering — the knob that stops macro-expansion/unrolling bombs.
	MaxIROps int
	// MaxMemWords bounds the program's memory image (globals + hidden
	// synchronization cells).
	MaxMemWords int64
	// Deadline, when non-zero, aborts compilation once passed. Lowering
	// checks it every 64 statements; the back half between functions,
	// between scheduled blocks, and every few thousand operations
	// within a block.
	Deadline time.Time
}

// ServiceLimits are the defaults applied to untrusted program
// submissions. Generous enough for every benchmark in the repo and for
// generated fuzz programs with hundreds of threads, tight enough that a
// hostile source cannot pin a worker or exhaust memory.
func ServiceLimits() Limits {
	return Limits{
		MaxSourceBytes: 64 << 10,
		MaxNodes:       100_000,
		MaxDepth:       200,
		MaxThreads:     512,
		MaxIROps:       500_000,
		MaxMemWords:    1 << 20,
		// Deadline is set per-request by the caller.
	}
}

// LimitError reports that compilation stopped because a Limits bound was
// exceeded. Typed so services can return 422 rather than 500.
type LimitError struct {
	What  string // "threads", "irops", or "memwords"
	Limit int64
	Got   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("compile: program exceeds %s limit %d (needs ≥ %d)", e.What, e.Limit, e.Got)
}

// DeadlineError reports that the compile deadline expired.
type DeadlineError struct{ Deadline time.Time }

func (e *DeadlineError) Error() string { return "compile: deadline exceeded" }

// IsResourceLimit reports whether err is any of the typed bounds
// violations a hardened endpoint should surface as a client error:
// sexpr parse limits, compiler limits, or a compile deadline.
func IsResourceLimit(err error) bool {
	var (
		pe *sexpr.LimitError
		ce *LimitError
		de *DeadlineError
	)
	return errors.As(err, &pe) || errors.As(err, &ce) || errors.As(err, &de)
}

// CompileBounded parses and compiles source under lim, honoring ctx
// cancellation (a ctx deadline tightens lim.Deadline). It is the entry
// point for untrusted input; Compile remains the trusted-input path with
// only stack-safety bounds. It is ParseBounded, LowerBounded and Build,
// with the deadline enforced in Build's back half too.
func CompileBounded(ctx context.Context, src string, cfg *machine.Config, opts Options, lim Limits) (*isa.Program, *Diagnostics, error) {
	forms, err := ParseBounded(src, lim)
	if err != nil {
		return nil, nil, err
	}
	l, err := LowerBounded(ctx, forms, cfg, opts, lim)
	if err != nil {
		return nil, nil, err
	}
	return l.build(l.env.lim.Deadline)
}

// ParseBounded parses src under lim's source bounds (bytes, parse-tree
// nodes, nesting depth).
func ParseBounded(src string, lim Limits) ([]*sexpr.Node, error) {
	return sexpr.ParseLimits(src, sexpr.Limits{
		MaxBytes: lim.MaxSourceBytes,
		MaxNodes: lim.MaxNodes,
		MaxDepth: lim.MaxDepth,
	})
}

// Lowered is a program lowered to IR: the front half of a compile,
// done. It keeps no reference into the parse tree it was lowered from,
// so holding one costs its IR only. Build finishes the compile.
type Lowered struct {
	env *env
}

// LowerBounded runs the part of CompileBounded that can reject a source
// read by ParseBounded under the same lim: it defaults a nil machine to
// the baseline, folds the ctx deadline into lim, and lowers forms to IR
// under lim. Every source-level rejection of a bounded compile
// (CompileError, LimitError, DeadlineError, UnitError) is raised here,
// so a service can validate an untrusted submission without optimizing,
// scheduling or emitting it; only a deadline that passes after lowering
// ends can stop CompileBounded's back half. It does not modify forms.
func LowerBounded(ctx context.Context, forms []*sexpr.Node, cfg *machine.Config, opts Options, lim Limits) (*Lowered, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	if dl, ok := ctx.Deadline(); ok && (lim.Deadline.IsZero() || dl.Before(lim.Deadline)) {
		lim.Deadline = dl
	}
	env, err := lowerForms(forms, cfg, opts, &lim)
	if err != nil {
		return nil, err
	}
	return &Lowered{env: env}, nil
}

// IROps returns the number of IR operations lowering produced, the
// quantity Limits.MaxIROps bounds.
func (l *Lowered) IROps() int64 { return l.env.irOps }

// errBuilt is Build's answer when called a second time.
var errBuilt = errors.New("compiler: lowered program already built")

// Build optimizes, schedules and emits the lowered program, producing
// exactly what CompileBounded would for the same arguments. It runs
// without a deadline (a program parked on a queued job may be built
// long after the deadline of the check that lowered it), so it fails
// only with compiler-internal errors. Optimization rewrites the IR in
// place, so Build runs once: it releases the IR, and a second call
// returns an error.
func (l *Lowered) Build() (*isa.Program, *Diagnostics, error) { return l.build(time.Time{}) }

// build is Build under a deadline (none when zero).
func (l *Lowered) build(deadline time.Time) (*isa.Program, *Diagnostics, error) {
	if l.env == nil {
		return nil, nil, errBuilt
	}
	env := l.env
	l.env = nil
	return env.build(deadline)
}

// checkThreads enforces the segment-count and memory-image bounds; it
// runs once per lowered segment, so it sees fork/forall expansion as it
// happens.
func (e *env) checkThreads() error {
	if e.lim == nil {
		return nil
	}
	if e.lim.MaxThreads > 0 && len(e.segs) > e.lim.MaxThreads {
		return &LimitError{What: "threads", Limit: int64(e.lim.MaxThreads), Got: int64(len(e.segs))}
	}
	if e.lim.MaxMemWords > 0 && e.memWords() > e.lim.MaxMemWords {
		return &LimitError{What: "memwords", Limit: e.lim.MaxMemWords, Got: e.memWords()}
	}
	return nil
}

// checkLowerBudget enforces the IR-op cap and compile deadline. It is
// called once per lowered statement (including every macro-expanded and
// unrolled copy), so expansion bombs are caught at statement granularity
// rather than after the fact.
func (e *env) checkLowerBudget() error {
	if e.lim == nil {
		return nil
	}
	if e.lim.MaxIROps > 0 && e.irOps > int64(e.lim.MaxIROps) {
		return &LimitError{What: "irops", Limit: int64(e.lim.MaxIROps), Got: e.irOps}
	}
	e.stmtCount++
	if !e.lim.Deadline.IsZero() && e.stmtCount%64 == 0 && time.Now().After(e.lim.Deadline) {
		return &DeadlineError{Deadline: e.lim.Deadline}
	}
	return nil
}
