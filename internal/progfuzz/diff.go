package progfuzz

import (
	"context"
	"fmt"

	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/oracle"
	"pcoup/internal/sim"
)

// DefaultDiffBudget bounds each simulated mode of one differential
// check. Generated programs finish in thousands of cycles; the budget
// only exists so a pipeline bug cannot hang the fuzzer.
const DefaultDiffBudget = 5_000_000

// DivergenceError reports a differential mismatch: the simulator's final
// memory image differs from the reference interpreter's. Any occurrence
// is a compiler or simulator bug.
type DivergenceError struct {
	Mode   experiments.Mode
	Global string
	Index  int64
	Sim    string
	Oracle string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("progfuzz: divergence under %s: %s[%d] = %s, oracle says %s",
		e.Mode, e.Global, e.Index, e.Sim, e.Oracle)
}

// DiffProgram runs src on the reference interpreter and on the compiler
// + simulator under every machine mode, comparing the final contents of
// each declared global. cfg selects the machine (nil = baseline);
// maxCycles ≤ 0 selects DefaultDiffBudget.
func DiffProgram(ctx context.Context, src string, cfg *machine.Config, maxCycles int64) error {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	if maxCycles <= 0 {
		maxCycles = DefaultDiffBudget
	}
	want, err := oracle.Run(src)
	if err != nil {
		return fmt.Errorf("progfuzz: oracle: %w", err)
	}
	for _, mode := range experiments.Modes() {
		if err := ctx.Err(); err != nil {
			return err
		}
		opts := compiler.Options{Mode: experiments.CompilerMode(mode)}
		prog, _, err := compiler.Compile(src, cfg, opts)
		if err != nil {
			return fmt.Errorf("progfuzz: compile under %s: %w", mode, err)
		}
		s, err := sim.New(cfg, prog, sim.WithContext(ctx))
		if err != nil {
			return fmt.Errorf("progfuzz: sim under %s: %w", mode, err)
		}
		if _, err := s.Run(maxCycles); err != nil {
			return fmt.Errorf("progfuzz: run under %s: %w", mode, err)
		}
		read := func(addr int64) isa.Value { v, _ := s.Memory().Peek(addr); return v }
		if d := oracle.Compare(want, prog.Data, read); d != nil {
			if d.Missing {
				return fmt.Errorf("progfuzz: global %q missing from program under %s", d.Global, mode)
			}
			return &DivergenceError{
				Mode: mode, Global: d.Global, Index: d.Index,
				Sim: d.Got.String(), Oracle: d.Want.String(),
			}
		}
		s.Release()
	}
	return nil
}

// DiffSeed generates the program for seed under o and checks it
// differentially. It returns the generated source alongside any error so
// callers can report the offending program.
func DiffSeed(ctx context.Context, seed int64, o GenOptions, maxCycles int64) (string, error) {
	src := GenerateOpts(seed, o)
	return src, DiffProgram(ctx, src, nil, maxCycles)
}
