package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pcoup/internal/isa"
)

// forkOp builds a fork to segment target on the mini machine's BR unit.
func forkOp(target int) *isa.Op {
	return &isa.Op{Code: isa.OpFork, Unit: uBR, Target: target}
}

// contended builds a program whose two forked workers fight over IU0, so
// the run exercises issued, fu-busy, and mem-sync classifications.
func contended() *isa.Program {
	seg := func(name string) *isa.ThreadCode {
		var words []isa.Instruction
		for i := 0; i < 10; i++ {
			words = append(words, word(opAdd(uIU0, r(0, 0), isa.ImmInt(int64(i)), isa.ImmInt(1))))
		}
		words = append(words, word(opHalt()))
		return &isa.ThreadCode{Name: name, Instrs: words}
	}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(forkOp(1)),
		word(forkOp(2)),
		word(opHalt()),
	}}
	return prog(main, seg("a"), seg("b"))
}

func TestStallAttributionConservation(t *testing.T) {
	s, err := New(miniMachine(), contended(), WithStallAttribution())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stalls
	if st == nil {
		t.Fatal("Result.Stalls nil with attribution enabled")
	}
	// Conservation: issued cycles plus per-cause stall cycles account for
	// every active thread-cycle, per thread and in aggregate.
	var want int64
	for _, th := range res.Threads {
		if th.Stalls == nil {
			t.Fatalf("t%d missing per-thread breakdown", th.ID)
		}
		active := th.HaltAt - th.SpawnAt
		if got := th.Stalls.Total(); got != active {
			t.Errorf("t%d: breakdown sums to %d, active %d cycles", th.ID, got, active)
		}
		want += active
	}
	if st.Slots != want {
		t.Errorf("Slots = %d, want %d (sum of active thread-cycles)", st.Slots, want)
	}
	if got := st.Total.Total(); got != st.Slots {
		t.Errorf("aggregate breakdown sums to %d, want Slots %d", got, st.Slots)
	}
	if st.Total[CauseIssued] == 0 {
		t.Error("no issued cycles recorded")
	}
	// Two identical threads on one IU: the loser's cycles must show up as
	// fu-busy arbitration losses on unit slot uIU0.
	if st.Total[CauseFUBusy] == 0 {
		t.Error("contended run recorded no fu-busy cycles")
	}
	if st.PerUnit[uIU0][CauseFUBusy] == 0 {
		t.Errorf("fu-busy not attributed to IU0: %v", st.PerUnit)
	}
}

func TestStallAttributionPresenceWait(t *testing.T) {
	// Main parks a synchronizing load until the worker's store lands; the
	// cycles main spends waiting on the loaded register must be classified
	// as memory-sync waits on that register.
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opAdd(uIU1, r(1, 0), isa.ImmInt(0), isa.ImmInt(0))),
		word(opAdd(uIU1, r(1, 0), isa.Reg(r(1, 0)), isa.ImmInt(1))),
		word(opAdd(uIU1, r(1, 0), isa.Reg(r(1, 0)), isa.ImmInt(1))),
		word(opStore(uMEM1, isa.Reg(r(1, 0)), 8)),
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(forkOp(1)),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)), // parks
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 9)),
		word(opHalt()),
	}}
	p := prog(main, worker)
	p.Data = []isa.DataSegment{{Name: "cell", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}
	s, err := New(miniMachine(), p, WithStallAttribution())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stalls
	if st.Total[CauseMemSync] == 0 {
		t.Error("parked load recorded no mem-sync cycles")
	}
	if st.WaitRegs["c0.r0"] == 0 {
		t.Errorf("wait on c0.r0 not recorded: %v", st.WaitRegs)
	}
}

// deadlocked builds a two-thread program that parks forever: both threads
// issue a synchronizing load from a cell nothing ever fills, then try to
// consume the loaded register.
func deadlocked() *isa.Program {
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opLoad(uMEM1, r(1, 0), 8, isa.SyncWaitFull)),
		word(opStore(uMEM1, isa.Reg(r(1, 0)), 9)),
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(forkOp(1)),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)),
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 10)),
		word(opHalt()),
	}}
	p := prog(main, worker)
	p.Data = []isa.DataSegment{{Name: "cell", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}
	return p
}

func TestDeadlockNamesWaitingRegister(t *testing.T) {
	s, err := New(miniMachine(), deadlocked())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100000)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("error = %v (%T), want *DeadlockError", err, err)
	}
	// Each blocked thread's diagnostic must carry its PC, its stall
	// cause, and the blocking resource: the register it is waiting on
	// and the memory address its reference is parked at.
	all := strings.Join(de.Threads, "\n")
	for _, wantReg := range []string{"c0.r0", "c1.r0"} {
		if !strings.Contains(all, wantReg) {
			t.Errorf("thread diagnostics missing waiting register %s:\n%s", wantReg, all)
		}
	}
	if !strings.Contains(all, "mem-sync") {
		t.Errorf("thread diagnostics missing stall cause:\n%s", all)
	}
	if !strings.Contains(all, "pc=") {
		t.Errorf("thread diagnostics missing pc:\n%s", all)
	}
	if !strings.Contains(all, "waiting addr 8") {
		t.Errorf("thread diagnostics missing blocking memory address:\n%s", all)
	}
	if !strings.Contains(de.Detail, "stalls:") {
		t.Errorf("Detail missing stall summary: %s", de.Detail)
	}
}

func TestShortMaxCyclesStillDiagnosesDeadlock(t *testing.T) {
	// A -max budget smaller than the default 20k no-progress window must
	// still produce the deadlock diagnostic, not a generic budget error.
	s, err := New(miniMachine(), deadlocked())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(500)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("error = %v (%T), want *DeadlockError", err, err)
	}
	if de.Cycle > 500 {
		t.Errorf("deadlock reported at cycle %d, beyond the %d budget", de.Cycle, 500)
	}
}

func TestJSONTraceOutput(t *testing.T) {
	tr := NewJSONTracer(miniMachine())
	s, err := New(miniMachine(), contended(), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var sawIssue, sawStall bool
	last := int64(-1 << 62)
	for i, ev := range doc.TraceEvents {
		if ev.Ts < last {
			t.Fatalf("event %d: timestamp %d decreases (previous %d)", i, ev.Ts, last)
		}
		last = ev.Ts
		switch {
		case ev.Ph == "X" && ev.Pid == tracePidUnits:
			sawIssue = true
		case ev.Ph == "X" && ev.Pid == tracePidThreads && ev.Name != "issued":
			sawStall = true
		}
	}
	if !sawIssue {
		t.Error("no issue events on unit tracks")
	}
	if !sawStall {
		t.Error("no stall spans on thread tracks")
	}
}
