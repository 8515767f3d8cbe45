// Package compiler translates the source language (simplified C semantics
// with Lisp syntax, read by package sexpr) into compiled isa.Programs for
// a particular machine configuration. It mirrors the prototype compiler of
// Section 3 of the paper: procedures are macro-expanded, loops may be
// unrolled explicitly, threads are carved out by fork/forall constructs,
// classic scalar optimizations run on a basic-block IR (constant
// propagation, common subexpression elimination, static evaluation of
// constant expressions, dead code elimination), and each thread body is
// statically scheduled into wide instruction words by critical-path list
// scheduling. Live variables are kept in registers across basic block
// boundaries; register allocation is not performed (an unbounded register
// space is assumed and peak usage reported).
package compiler

import (
	"fmt"
	"time"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// Mode selects the cluster restriction applied to each thread (the
// compiler's "mode flag" in the paper).
type Mode int

const (
	// Unrestricted lets every thread use any function unit (STS, Ideal,
	// and Coupled machine modes).
	Unrestricted Mode = iota
	// SingleCluster schedules each thread onto the function units of a
	// single arithmetic cluster, chosen by the compiler with static load
	// balancing (SEQ and TPE machine modes). Branch clusters remain
	// shared.
	SingleCluster
)

func (m Mode) String() string {
	if m == SingleCluster {
		return "single"
	}
	return "unrestricted"
}

// Options controls a compilation.
type Options struct {
	Mode Mode
	// DisableOpt turns off the scalar optimization passes (ablation).
	DisableOpt bool
	// AutoUnroll expands counted loops with compile-time-constant bounds
	// whose body replication stays within AutoUnroll expanded iterations
	// (extension: the paper's compiler required hand unrolling and notes
	// that better compilation "should benefit processor coupling at
	// least as much" as other organizations). Zero disables.
	AutoUnroll int
}

// SegDiag reports per-segment compile diagnostics.
type SegDiag struct {
	Name  string
	Words int
	Ops   int
	// Moves counts inter-cluster transfer operations inserted by the
	// scheduler.
	Moves int
	// RegsPerCluster is the number of registers used in each cluster.
	RegsPerCluster []int
	// LoopWords is the total schedule length (in words) of the blocks
	// lying on CFG cycles — the compile-time schedule length of the
	// segment's loop body (used by the Table 3 experiment).
	LoopWords int
	// BlockWords is the schedule length of each basic block.
	BlockWords []int
}

// Diagnostics is the compiler's diagnostic output (the paper's compiler
// emits a diagnostic file alongside the assembly).
type Diagnostics struct {
	Segments []SegDiag
}

// Diag returns diagnostics for the named segment.
func (d *Diagnostics) Diag(name string) (SegDiag, bool) {
	for _, s := range d.Segments {
		if s.Name == name {
			return s, true
		}
	}
	return SegDiag{}, false
}

// CompileError is a source-level compilation failure.
type CompileError struct {
	Pos string
	Msg string
}

func (e *CompileError) Error() string {
	if e.Pos == "" {
		return "compile: " + e.Msg
	}
	return fmt.Sprintf("compile: %s: %s", e.Pos, e.Msg)
}

// UnitError reports a program that needs a kind of function unit the
// machine does not have, such as a floating-point operation on a
// machine with no FPU: no schedule can place it.
type UnitError struct {
	Kind machine.UnitKind
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("compile: program has %v operations, and the machine has no %v", e.Kind, e.Kind)
}

func errAt(n *sexpr.Node, format string, args ...any) error {
	pos := ""
	if n != nil {
		pos = n.Pos()
	}
	return &CompileError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Compile parses and compiles source for the given machine configuration.
func Compile(src string, cfg *machine.Config, opts Options) (*isa.Program, *Diagnostics, error) {
	forms, err := sexpr.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return CompileForms(forms, cfg, opts)
}

// CompileForms compiles pre-parsed top-level forms.
func CompileForms(forms []*sexpr.Node, cfg *machine.Config, opts Options) (*isa.Program, *Diagnostics, error) {
	env, err := lowerForms(forms, cfg, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	return env.build(time.Time{})
}

// lowerForms is the front half of a compile: configuration validation,
// declaration processing and lowering to IR, under lim when non-nil (see
// CompileBounded).
// Every source-level rejection (CompileError, LimitError, DeadlineError,
// UnitError) is raised here. The env it returns holds no parse-tree node.
func lowerForms(forms []*sexpr.Node, cfg *machine.Config, opts Options, lim *Limits) (*env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env, err := newEnv(forms, cfg, opts)
	if err != nil {
		return nil, err
	}
	env.lim = lim
	if err := env.lowerAll(); err != nil {
		return nil, err
	}
	env.dropSource()
	return env, nil
}

// build is the back half of a compile: optimization, scheduling and
// emission of a lowered env. It fails only with compiler-internal errors
// or, when deadline is non-zero, with a DeadlineError once it passes:
// checked between functions, between scheduled blocks, and every few
// thousand operations within a block.
func (e *env) build(deadline time.Time) (*isa.Program, *Diagnostics, error) {
	if !e.opts.DisableOpt {
		o := newOptimizer(e.fns)
		for _, fn := range e.fns {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil, nil, &DeadlineError{Deadline: deadline}
			}
			o.optimize(fn)
		}
	}
	prog, diags, err := e.emit(deadline)
	if err != nil {
		return nil, nil, err
	}
	if err := prog.Validate(e.cfg.NumUnits(), len(e.cfg.Clusters), e.cfg.MaxDests); err != nil {
		return nil, nil, fmt.Errorf("compiler: internal error: generated invalid program: %w", err)
	}
	return prog, diags, nil
}
