package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// fuzzBudget is the cycle budget of every fuzzed run: long enough to
// issue, complete memory references, and fork, short enough to keep each
// input in the low milliseconds.
const fuzzBudget = 2000

// compileBench compiles a benchmark's threaded source for cfg (the
// Coupled cell's program).
func compileBench(tb testing.TB, name string, cfg *machine.Config) *isa.Program {
	tb.Helper()
	b, err := bench.Get(name, bench.Threaded)
	if err != nil {
		tb.Fatal(err)
	}
	prog, _, err := compiler.Compile(b.Source, cfg, compiler.Options{Mode: compiler.Unrestricted})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// smallProgram reports whether every allocation the program asks the
// simulator for is small, so fuzzing explores the kernel, not host
// memory.
func smallProgram(p *isa.Program) bool {
	if p.MemWords > 1<<16 {
		return false
	}
	for _, seg := range p.Segments {
		for _, w := range seg.Instrs {
			for _, op := range w.Ops {
				if op == nil {
					continue
				}
				for _, d := range op.Dests {
					if d.Index > 1<<10 {
						return false
					}
				}
				for _, src := range op.Srcs {
					if src.Kind == isa.OperandReg && src.Reg.Index > 1<<10 {
						return false
					}
				}
			}
		}
	}
	return true
}

// FuzzParseText: assembly text through ParseText, New, and a short Run
// either fails with an error or runs; it never panics. The seeds are
// pcc's output for the four benchmarks and a word whose add has one
// source (testdata/fuzz), which used to panic at issue.
func FuzzParseText(f *testing.F) {
	cfg := machine.Baseline()
	for _, name := range bench.Names() {
		var buf bytes.Buffer
		if err := isa.WriteText(&buf, compileBench(f, name, cfg)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := isa.ParseText(bytes.NewReader(data))
		if err != nil || !smallProgram(prog) {
			return
		}
		s, err := New(cfg, prog)
		if err != nil {
			return
		}
		s.Run(fuzzBudget)
	})
}

// FuzzCheckpoint: bytes decoded as a Checkpoint, restored into a Coupled
// or a CoupledDyn lud cell, and run a short while either fail with an
// error or run; they never panic. The seeds are real mid-run checkpoints
// of both cells, plus one whose second thread claims the first's
// priority, a state no run reaches and Restore rejects.
func FuzzCheckpoint(f *testing.F) {
	base := machine.Baseline().WithMemory(machine.Mem2)
	cfgs := []*machine.Config{base, base.WithDynamic(machine.DynAll)}
	progs := make([]*isa.Program, len(cfgs))
	for i, cfg := range cfgs {
		progs[i] = compileBench(f, "lud", cfg)
		var cks [][]byte
		s, err := New(cfg, progs[i], WithStallAttribution(), WithCheckpointEvery(700, func(ck *Checkpoint) error {
			data, err := json.Marshal(ck)
			cks = append(cks, data)
			return err
		}))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.Run(fuzzBudget); err == nil || len(cks) < 2 {
			f.Fatalf("seed run: %d checkpoints, err %v (want a budget stop after >= 2)", len(cks), err)
		}
		f.Add(cks[0])
		f.Add(cks[1])
		if i == 0 {
			f.Add(swapPriority(f, cks[1]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck Checkpoint
		if json.Unmarshal(data, &ck) != nil {
			return
		}
		for i, cfg := range cfgs {
			s, err := New(cfg, progs[i])
			if err != nil {
				t.Fatal(err)
			}
			if s.Restore(&ck) != nil {
				continue
			}
			s.Run(ck.Cycle + fuzzBudget)
		}
	})
}

// swapPriority rewrites a checkpoint so its second thread has the
// first thread's priority.
func swapPriority(f *testing.F, data []byte) []byte {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		f.Fatal(err)
	}
	if len(ck.Threads) < 2 {
		f.Fatalf("seed checkpoint has %d threads, want >= 2", len(ck.Threads))
	}
	ck.Threads[1].Priority = ck.Threads[0].Priority
	out, err := json.Marshal(&ck)
	if err != nil {
		f.Fatal(err)
	}
	return out
}
