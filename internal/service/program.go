package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/oracle"
	"pcoup/internal/sexpr"
	"pcoup/internal/sim"
)

// ProgramSpec is an untrusted source program submitted for compilation
// and simulation (POST /v1/programs, or the "program" field of a job
// spec). The source crosses a trust boundary: it is parsed, compiled,
// and simulated under the strict resource limits of
// compiler.ServiceLimits plus a cycle budget, and every submission is
// validated by a bounded check (parse and lowering under every cap)
// before it is accepted. A spec carries the source only: the lowered
// program never rides on it (specs stay in the job tables for good).
type ProgramSpec struct {
	// Source is the program text (s-expression surface syntax).
	Source string `json:"source"`
	// Mode selects the compiler schedule (seq, sts, tpe, coupled,
	// ideal; default coupled).
	Mode string `json:"mode,omitempty"`
	// DisableOpt turns off the scalar optimization passes.
	DisableOpt bool `json:"disable_opt,omitempty"`
	// AutoUnroll expands counted constant-bound loops up to this many
	// replicated iterations (0: off).
	AutoUnroll int `json:"auto_unroll,omitempty"`
	// Verify additionally runs the reference interpreter and fails the
	// job on any divergence from the simulated memory image. Only valid
	// for race-free programs (the interpreter executes forks
	// sequentially).
	Verify bool `json:"verify,omitempty"`

	// sourceSHA is the canonical source digest, recorded by normalize
	// from the forms it checked so keying never parses the source again
	// (zero until then).
	sourceSHA [sha256.Size]byte
}

// ProgramError marks a program submission rejected for what it contains
// — a syntax error, a resource-limit violation, or an invalid knob —
// rather than for how the service is doing. The HTTP layer maps it to
// 422 Unprocessable Entity, and the fleet gateway treats it as
// permanent (no failover: every backend would reject it identically).
type ProgramError struct{ Err error }

func (e *ProgramError) Error() string { return "program: " + e.Err.Error() }
func (e *ProgramError) Unwrap() error { return e.Err }

// programCompileTimeout bounds the submission-time check (parse and
// lowering under the service limits). The worker's compile runs under
// the job's own deadline.
const programCompileTimeout = 5 * time.Second

// baselineConfig is the machine of a program job that names none.
// Neither the compiler nor the simulator writes a Config, so every such
// job shares this one instead of building its own.
var baselineConfig = machine.Baseline()

// DefaultProgramCycles is the simulation cycle budget applied to
// program jobs that set no options.max_cycles. Exceeding it finishes
// the job in the budget_exceeded state rather than pinning a worker.
const DefaultProgramCycles = 10_000_000

// programWork is what a program submission's check leaves for its
// worker: the lowered program, which holds no reference to the forms,
// and the parsed forms. Server.park keeps each only within its bound;
// a nil field is redone from source by the worker.
type programWork struct {
	lowered *compiler.Lowered
	forms   []*sexpr.Node
}

// normalize validates the program spec: the mode must parse, and the
// source must parse and lower (compiler.ParseBounded and LowerBounded)
// under the service limits against the resolved machine (nil =
// baseline) — every rejection a full compile can raise from the source.
// It records the canonical source digest from the parsed forms and
// returns the lowered program and the forms, which lowering left
// unchanged. Every rejection is wrapped in ProgramError so the
// transport layers can distinguish "your program is bad" (422) from
// "the service is unhealthy" (5xx).
func (p *ProgramSpec) normalize(cfg *machine.Config) (programWork, error) {
	if strings.TrimSpace(p.Source) == "" {
		return programWork{}, &ProgramError{Err: fmt.Errorf("source is empty")}
	}
	if p.Mode == "" {
		p.Mode = string(experiments.COUPLED)
	}
	mode, err := experiments.ParseMode(p.Mode)
	if err != nil {
		return programWork{}, &ProgramError{Err: err}
	}
	p.Mode = string(mode)
	if p.AutoUnroll < 0 {
		return programWork{}, &ProgramError{Err: fmt.Errorf("auto_unroll: must be >= 0")}
	}
	if cfg == nil {
		cfg = baselineConfig
	}
	lim := compiler.ServiceLimits()
	lim.Deadline = time.Now().Add(programCompileTimeout)
	forms, err := compiler.ParseBounded(p.Source, lim)
	if err != nil {
		return programWork{}, &ProgramError{Err: err}
	}
	lowered, err := compiler.LowerBounded(context.Background(), forms, cfg, p.compilerOptions(), lim)
	if err != nil {
		return programWork{}, &ProgramError{Err: err}
	}
	p.sourceSHA = canonicalSourceSHA(forms)
	return programWork{lowered: lowered, forms: forms}, nil
}

// compilerOptions maps the spec's knobs to compiler options. Call after
// normalize (Mode must be canonical).
func (p *ProgramSpec) compilerOptions() compiler.Options {
	return compiler.Options{
		Mode:       experiments.CompilerMode(experiments.Mode(p.Mode)),
		DisableOpt: p.DisableOpt,
		AutoUnroll: p.AutoUnroll,
	}
}

// canonicalSourceSHA hashes the re-rendered forms of a parsed source, so
// formatting and comments do not fragment the cache: two submissions of
// the same program share one cache entry and one fleet routing home.
func canonicalSourceSHA(forms []*sexpr.Node) [sha256.Size]byte {
	var text []byte
	for _, f := range forms {
		text = append(f.AppendText(text), '\n')
	}
	return sha256.Sum256(text)
}

// errProgramNotNormalized is ProgramContentKey's answer for a spec that
// JobSpec.Normalize has not accepted: only normalize records the
// canonical source digest.
var errProgramNotNormalized = errors.New("service: program spec not normalized")

// ProgramContentKey is the exported program cache key: the SHA-256
// content address of one (canonical source, machine, compiler options,
// sim options) compile-and-run. The fleet gateway routes program jobs
// on it so identical resubmissions land on the same backend and find
// its cache hot. p must have been accepted by JobSpec.Normalize.
func ProgramContentKey(p *ProgramSpec, cfg *machine.Config, o SimOptions) (string, error) {
	if p.sourceSHA == [sha256.Size]byte{} {
		return "", errProgramNotNormalized
	}
	msha, err := machineSHA(cfg)
	if err != nil {
		return "", err
	}
	return keyDoc{
		Kind: "program", Mode: p.Mode, SourceSHA: hex.EncodeToString(p.sourceSHA[:]), MachineSHA: msha, Options: o,
		Extra: fmt.Sprintf("opt=%t,unroll=%d,verify=%t", !p.DisableOpt, p.AutoUnroll, p.Verify),
	}.hash(), nil
}

// ProgramResult is the payload of a program job: run statistics plus
// the final contents of every declared global (the program's observable
// output).
type ProgramResult struct {
	Name       string             `json:"name"`
	Mode       string             `json:"mode"`
	MachineSHA string             `json:"machine_sha256"`
	Cycles     int64              `json:"cycles"`
	Ops        int64              `json:"ops"`
	Threads    int                `json:"threads"`
	Util       map[string]float64 `json:"utilization"`
	// Globals maps each declared global to its final values, rendered
	// as decimal strings (integers) or Go floats.
	Globals map[string][]string `json:"globals"`
	// Verified is set when the run was cross-checked against the
	// reference interpreter.
	Verified bool `json:"verified,omitempty"`
}

// runProgramJob compiles and simulates one untrusted program under the
// service limits and the cycle budget, consulting the cache first.
// work, when non-nil, holds what the submission check parked: with the
// lowered program the worker only builds it, and with the forms
// verification interprets them instead of parsing the source again.
func (s *Server) runProgramJob(ctx context.Context, job *Job, work *programWork) (json.RawMessage, error) {
	p := job.spec.Program
	key, err := ProgramContentKey(p, job.cfg, job.spec.Options)
	if err != nil {
		return nil, err
	}
	if payload, ok := s.cache.Get(key); ok {
		s.markHit(job)
		return payload, nil
	}

	cfg := job.cfg
	if cfg == nil {
		cfg = baselineConfig
	}
	var parked programWork
	if work != nil {
		parked = *work
	}
	// A program small enough to be parked was lowered at submission and
	// only needs its back half; any other is compiled from source here,
	// under the job's own deadline. Nothing compiled crosses the journal,
	// and cached hits skip this entirely.
	var prog *isa.Program
	if parked.lowered != nil {
		prog, _, err = parked.lowered.Build()
	} else {
		prog, _, err = compiler.CompileBounded(ctx, p.Source, cfg, p.compilerOptions(), compiler.ServiceLimits())
	}
	if err != nil {
		if compiler.IsResourceLimit(err) {
			return nil, &ProgramError{Err: err}
		}
		return nil, err
	}

	sm, err := sim.New(cfg, prog, sim.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	// The memory image goes back to the pool on every exit, after its
	// last read (the globals and verification below).
	defer sm.Release()
	maxCycles := job.spec.Options.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultProgramCycles
	}
	r, err := sm.Run(maxCycles)
	if err != nil {
		return nil, err
	}

	msha, err := machineSHA(job.cfg)
	if err != nil {
		return nil, err
	}
	out := ProgramResult{
		Name: prog.Name, Mode: p.Mode, MachineSHA: msha,
		Cycles: r.Cycles, Ops: r.Ops, Threads: len(r.Threads),
		Util:    map[string]float64{},
		Globals: map[string][]string{},
	}
	for k := 0; k < machine.NumUnitKinds; k++ {
		kind := machine.UnitKind(k)
		out.Util[kind.String()] = r.Utilization(kind)
	}
	for _, d := range prog.Data {
		if strings.HasPrefix(d.Name, "_") {
			continue // hidden synchronization cells
		}
		vals := make([]string, len(d.Values))
		for i := range d.Values {
			v, _ := sm.Memory().Peek(d.Addr + int64(i))
			vals[i] = v.String()
		}
		out.Globals[d.Name] = vals
	}

	if p.Verify {
		if err := verifyProgram(p.Source, parked.forms, prog, sm); err != nil {
			return nil, err
		}
		out.Verified = true
	}

	payload, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, payload)
	return payload, nil
}

// verifyProgram replays the program on the reference interpreter and
// compares every global against the simulation's memory image: from
// forms when the submission check parked them, else from src. Any
// mismatch on a race-free program is a toolchain bug; on a racy program
// it flags the race.
func verifyProgram(src string, forms []*sexpr.Node, prog *isa.Program, sm *sim.Sim) error {
	var want map[string][]isa.Value
	var err error
	if forms != nil {
		want, err = oracle.RunForms(forms)
	} else {
		want, err = oracle.Run(src)
	}
	if err != nil {
		return &ProgramError{Err: fmt.Errorf("verify: interpreter: %w", err)}
	}
	read := func(addr int64) isa.Value { v, _ := sm.Memory().Peek(addr); return v }
	d := oracle.Compare(want, prog.Data, read)
	switch {
	case d == nil:
		return nil
	case d.Missing:
		return fmt.Errorf("verify: global %q missing from compiled program", d.Global)
	default:
		return fmt.Errorf("verify: divergence: %s[%d] = %v, interpreter says %v", d.Global, d.Index, d.Got, d.Want)
	}
}
