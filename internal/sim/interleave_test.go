package sim

import (
	"strings"
	"testing"

	"pcoup/internal/isa"
)

func TestInterleaveRecorder(t *testing.T) {
	// Two threads sharing the mini machine's units: the recorder must
	// show both thread ids, never double-book a unit, and agree with the
	// run's op count.
	seg := func(name string, unit int) *isa.ThreadCode {
		var words []isa.Instruction
		for i := 0; i < 5; i++ {
			words = append(words, word(opAdd(unit, r(unit/2, 0), isa.ImmInt(int64(i)), isa.ImmInt(1))))
		}
		words = append(words, word(opHalt()))
		return &isa.ThreadCode{Name: name, Instrs: words}
	}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 2}),
		word(opHalt()),
	}}
	cfg := miniMachine()
	p := prog(main, seg("a", uIU0), seg("b", uIU1))
	rec := NewInterleaveRecorder(cfg, 100)
	s, err := New(cfg, p, WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}

	// Total recorded issues must equal the dynamic op count.
	recorded := 0
	for c := int64(1); c <= res.Cycles; c++ {
		recorded += rec.Busy(c)
	}
	if int64(recorded) != res.Ops {
		t.Errorf("recorded %d issues, run had %d ops", recorded, res.Ops)
	}

	// Some cycle must have had both worker threads active at once
	// (thread 1 on IU0 and thread 2 on IU1 can overlap).
	overlap := false
	for c := int64(1); c <= res.Cycles; c++ {
		if len(rec.ThreadsActive(c)) >= 2 {
			overlap = true
		}
	}
	if !overlap {
		t.Error("no cycle showed two threads interleaved")
	}

	var buf strings.Builder
	rec.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "IU0") || !strings.Contains(out, "BR0") {
		t.Errorf("render missing unit headers:\n%s", out)
	}
	if !strings.Contains(out, "cycle") {
		t.Errorf("render missing header:\n%s", out)
	}
}

func TestInterleaveRecorderCap(t *testing.T) {
	cfg := miniMachine()
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1))),
		word(opAdd(uIU0, r(0, 1), isa.ImmInt(1), isa.ImmInt(1))),
		word(opAdd(uIU0, r(0, 2), isa.ImmInt(1), isa.ImmInt(1))),
		word(opHalt()),
	}}
	rec := NewInterleaveRecorder(cfg, 2)
	s, err := New(cfg, prog(main), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if rec.Busy(3) != 0 {
		t.Error("recorder captured beyond its cycle cap")
	}
	if rec.Busy(1) == 0 {
		t.Error("recorder missed cycle 1")
	}
	// Pin the contract: a cap of maxCycle records exactly maxCycle
	// cycles (1..maxCycle), never maxCycle+1.
	if got := rec.RecordedCycles(); got != 2 {
		t.Errorf("RecordedCycles() = %d with cap 2, want exactly 2", got)
	}
}

func TestInterleaveRecorderCountPinned(t *testing.T) {
	// An uncapped recorder on a busy run records exactly the cycles that
	// issued — here a dependent chain issues every cycle through the
	// halt, so RecordedCycles must equal the halt cycle and the recorded
	// issue total must equal the op count.
	cfg := miniMachine()
	instrs := []isa.Instruction{word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1)))}
	for i := 1; i < 20; i++ {
		instrs = append(instrs, word(opAdd(uIU0, r(0, i%4), isa.Reg(r(0, (i-1)%4)), isa.ImmInt(1))))
	}
	instrs = append(instrs, word(opHalt()))
	main := &isa.ThreadCode{Name: "main", Instrs: instrs}
	rec := NewInterleaveRecorder(cfg, 0)
	s, err := New(cfg, prog(main), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	var lastIssue int64
	total := 0
	for c := int64(1); c <= res.Cycles; c++ {
		if n := rec.Busy(c); n > 0 {
			lastIssue = c
			total += n
		}
	}
	if got := rec.RecordedCycles(); got != lastIssue {
		t.Errorf("RecordedCycles() = %d, want last issuing cycle %d", got, lastIssue)
	}
	if int64(total) != res.Ops {
		t.Errorf("recorded %d issues, run had %d ops", total, res.Ops)
	}
}
