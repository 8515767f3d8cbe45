package sim

import (
	"fmt"
	"strings"
	"testing"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// miniMachine builds a small test machine: two clusters of IU+MEM and one
// branch cluster. Global unit slots: 0=IU/c0 1=MEM/c0 2=IU/c1 3=MEM/c1
// 4=BR/c2.
func miniMachine() *machine.Config {
	return &machine.Config{
		Name: "mini",
		Clusters: []machine.ClusterSpec{
			{Units: []machine.UnitSpec{{Kind: machine.IU, Latency: 1}, {Kind: machine.MEM, Latency: 1}}},
			{Units: []machine.UnitSpec{{Kind: machine.IU, Latency: 1}, {Kind: machine.MEM, Latency: 1}}},
			{Units: []machine.UnitSpec{{Kind: machine.BR, Latency: 1}}},
		},
		Interconnect: machine.Full,
		Memory:       machine.MemMin,
		MaxDests:     2,
		Arbitration:  machine.PriorityArbitration,
	}
}

const (
	uIU0  = 0
	uMEM0 = 1
	uIU1  = 2
	uMEM1 = 3
	uBR   = 4
)

// word builds an instruction word for the mini machine.
func word(ops ...*isa.Op) isa.Instruction {
	in := isa.Instruction{Ops: make([]*isa.Op, 5)}
	for _, op := range ops {
		in.Ops[op.Unit] = op
	}
	return in
}

func r(c, i int) isa.RegRef { return isa.RegRef{Cluster: c, Index: i} }

func opAdd(unit int, dst isa.RegRef, a, b isa.Operand) *isa.Op {
	return &isa.Op{Code: isa.OpAdd, Unit: unit, Dests: []isa.RegRef{dst}, Srcs: []isa.Operand{a, b}}
}

func opHalt() *isa.Op { return &isa.Op{Code: isa.OpHalt, Unit: uBR} }

func opStore(unit int, val isa.Operand, addr int64) *isa.Op {
	return &isa.Op{Code: isa.OpStore, Unit: unit, Srcs: []isa.Operand{val}, Offset: addr}
}

func opLoad(unit int, dst isa.RegRef, addr int64, sync isa.SyncFlavor) *isa.Op {
	return &isa.Op{Code: isa.OpLoad, Unit: unit, Sync: sync, Dests: []isa.RegRef{dst}, Offset: addr}
}

func prog(segs ...*isa.ThreadCode) *isa.Program {
	return &isa.Program{Name: "test", Segments: segs, MemWords: 64}
}

func mustRun(t *testing.T, cfg *machine.Config, p *isa.Program) (*Result, *Sim) {
	t.Helper()
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

func TestDependentChainLatency(t *testing.T) {
	// r0=1+1 ; r1=r0+1 ; r2=r1+1 ; store r2 ; halt — a pure chain should
	// issue one op per cycle (1-cycle units, writeback then issue).
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1))),
		word(opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(1))),
		word(opAdd(uIU0, r(0, 2), isa.Reg(r(0, 1)), isa.ImmInt(1))),
		word(opStore(uMEM0, isa.Reg(r(0, 2)), 8)),
		word(opHalt()),
	}}
	res, s := mustRun(t, miniMachine(), prog(main))
	if v, _ := s.Memory().Peek(8); v.AsInt() != 4 {
		t.Errorf("mem[8] = %v, want 4", v)
	}
	// chain: issue at cycles 1,2,3; store issues 4, completes 5; halt 5.
	if res.Cycles > 7 {
		t.Errorf("chain took %d cycles, expected <= 7", res.Cycles)
	}
	if res.Ops != 5 {
		t.Errorf("ops = %d, want 5", res.Ops)
	}
}

func TestInstructionSlip(t *testing.T) {
	// The paper's Figure 1 semantics: operations scheduled in one wide
	// instruction word need not issue simultaneously. Word 1 holds a
	// dependent op (waiting on a parked synchronizing load) and an
	// independent op; the independent op must issue cycles earlier, and
	// word 2 must wait for the whole word.
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opAdd(uIU1, r(1, 1), isa.ImmInt(0), isa.ImmInt(0))),
		word(opAdd(uIU1, r(1, 1), isa.Reg(r(1, 1)), isa.ImmInt(1))),
		word(opAdd(uIU1, r(1, 1), isa.Reg(r(1, 1)), isa.ImmInt(1))),
		word(opAdd(uIU1, r(1, 1), isa.Reg(r(1, 1)), isa.ImmInt(1))),
		word(opStore(uMEM1, isa.ImmInt(77), 8)), // wakes main's load
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)), // parks
		word(
			opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(1)), // dependent
			// Independent: runs on IU1 with immediate sources, writing
			// its result remotely into cluster 0 for the next word.
			opAdd(uIU1, r(0, 2), isa.ImmInt(5), isa.ImmInt(5)),
		),
		word(opAdd(uIU0, r(0, 3), isa.Reg(r(0, 2)), isa.ImmInt(1))), // next word
		word(opStore(uMEM0, isa.Reg(r(0, 1)), 9)),
		word(opHalt()),
	}}
	p := prog(main, worker)
	p.Data = []isa.DataSegment{{Name: "cell", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}

	var trace strings.Builder
	s, err := New(miniMachine(), p, WithObserver(NewTextTrace(&trace)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Memory().Peek(9); v.AsInt() != 78 {
		t.Errorf("mem[9] = %v, want 78", v)
	}
	// Extract issue cycles from the trace.
	issueCycle := func(substr string) int {
		for _, line := range strings.Split(trace.String(), "\n") {
			if strings.Contains(line, "issue") && strings.Contains(line, substr) && strings.Contains(line, "t0 ") {
				var c int
				if _, err := fmt.Sscanf(line, "[%d]", &c); err == nil {
					return c
				}
			}
		}
		t.Fatalf("trace missing %q:\n%s", substr, trace.String())
		return -1
	}
	depCycle := issueCycle("add c0.r1")
	indepCycle := issueCycle("add c0.r2")
	nextCycle := issueCycle("add c0.r3")
	if !(indepCycle < depCycle) {
		t.Errorf("independent op issued at %d, dependent at %d: schedule did not slip", indepCycle, depCycle)
	}
	if !(nextCycle > depCycle) {
		t.Errorf("word 3 issued at %d before word 2 completed at %d", nextCycle, depCycle)
	}
}

func TestLockStepDisallowsSlip(t *testing.T) {
	// Same program, lock-step issue: word 2's independent ops cannot
	// issue ahead of the dependent one, so the run takes longer.
	build := func() *isa.Program {
		main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
			word(opStore(uMEM1, isa.ImmInt(77), 8)),
			word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)),
			word(
				opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(1)),
				opAdd(uIU1, r(1, 0), isa.ImmInt(5), isa.ImmInt(5)),
			),
			word(opStore(uMEM0, isa.Reg(r(0, 1)), 9)),
			word(opHalt()),
		}}
		return prog(main)
	}
	coupled := miniMachine()
	res1, _ := mustRun(t, coupled, build())
	lock := miniMachine()
	lock.LockStepIssue = true
	res2, s2 := mustRun(t, lock, build())
	if v, _ := s2.Memory().Peek(9); v.AsInt() != 78 {
		t.Errorf("lock-step mem[9] = %v", v)
	}
	if res2.Cycles < res1.Cycles {
		t.Errorf("lock-step (%d) faster than slipped issue (%d)", res2.Cycles, res1.Cycles)
	}
}

// issueLog records each issue event's (cycle, thread) pair.
type issueLog struct {
	nopEvents
	issues [][2]int64
}

func (l *issueLog) Issue(cycle int64, _, thread, _ int, _ *isa.Op) {
	l.issues = append(l.issues, [2]int64{cycle, int64(thread)})
}

func TestLockStepAdmitsInPriorityOrder(t *testing.T) {
	// On cycle 2 both threads' words are ready: main's (thread 0, higher
	// priority) needs units {1,2}, the child's needs {0,1}. Lock-step
	// admission reserves units in thread-arbitration order, so main's
	// word issues and the child's waits a cycle for unit 1; a scan that
	// admitted words unit by unit would reach the child's unit 0 first
	// and block main instead.
	child := &isa.ThreadCode{Name: "child", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1)), opStore(uMEM0, isa.ImmInt(2), 9)),
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opStore(uMEM0, isa.ImmInt(1), 8), opAdd(uIU1, r(1, 0), isa.ImmInt(5), isa.ImmInt(5))),
		word(opHalt()),
	}}
	cfg := miniMachine()
	cfg.LockStepIssue = true
	log := &issueLog{}
	s, err := New(cfg, prog(main, child), WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// Fork on cycle 1; main's word on 2; main's halt and the child's
	// word on 3; the child's halt on 4.
	want := [][2]int64{{1, 0}, {2, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 1}, {4, 1}}
	if fmt.Sprint(log.issues) != fmt.Sprint(want) {
		t.Errorf("issue (cycle, thread) order = %v, want %v", log.issues, want)
	}
}

func TestWAWGuard(t *testing.T) {
	// Two writes to r0 with a slow consumer between them: the second
	// write must wait for the first to land (presence bit), keeping the
	// reader's value correct.
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(10), isa.ImmInt(0))),
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 8)),
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(20), isa.ImmInt(0))),
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 9)),
		word(opHalt()),
	}}
	_, s := mustRun(t, miniMachine(), prog(main))
	if v, _ := s.Memory().Peek(8); v.AsInt() != 10 {
		t.Errorf("mem[8] = %v, want 10", v)
	}
	if v, _ := s.Memory().Peek(9); v.AsInt() != 20 {
		t.Errorf("mem[9] = %v, want 20", v)
	}
}

func TestBranching(t *testing.T) {
	// Count down from 3 with a loop: r0=3; loop: r0--; bt r0 -> loop;
	// store; halt. The branch condition register lives in the branch
	// cluster (cluster 2).
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpMov, Unit: uIU0, Dests: []isa.RegRef{r(0, 0)}, Srcs: []isa.Operand{isa.ImmInt(3)}}),
		word(&isa.Op{Code: isa.OpSub, Unit: uIU0, Dests: []isa.RegRef{r(0, 0), r(2, 0)}, Srcs: []isa.Operand{isa.Reg(r(0, 0)), isa.ImmInt(1)}}),
		word(&isa.Op{Code: isa.OpBt, Unit: uBR, Srcs: []isa.Operand{isa.Reg(r(2, 0))}, Target: 1}),
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 8)),
		word(opHalt()),
	}}
	_, s := mustRun(t, miniMachine(), prog(main))
	if v, _ := s.Memory().Peek(8); v.AsInt() != 0 {
		t.Errorf("mem[8] = %v, want 0", v)
	}
}

func TestMultiBranchWordKeepsTakenSuccessor(t *testing.T) {
	// A word with two conditional branches (never emitted by the
	// compiler, but valid assembly): the first is taken, the second not.
	// The taken target is the successor, in order and in a window.
	cfg := miniMachine()
	cfg.Clusters = append(cfg.Clusters, machine.ClusterSpec{Units: []machine.UnitSpec{{Kind: machine.BR, Latency: 1}}})
	const uBR2 = 5
	two := isa.Instruction{Ops: make([]*isa.Op, 6)}
	two.Ops[uBR] = &isa.Op{Code: isa.OpBt, Unit: uBR, Srcs: []isa.Operand{isa.ImmInt(1)}, Target: 2}
	two.Ops[uBR2] = &isa.Op{Code: isa.OpBf, Unit: uBR2, Srcs: []isa.Operand{isa.ImmInt(1)}, Target: 3}
	pad := func(in isa.Instruction) isa.Instruction {
		in.Ops = append(in.Ops, nil)
		return in
	}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		two,
		pad(word(opStore(uMEM0, isa.ImmInt(1), 8))),
		pad(word(opStore(uMEM0, isa.ImmInt(2), 9))),
		pad(word(opHalt())),
	}}
	for _, window := range []int{0, 4} {
		c := *cfg
		c.Dynamic = machine.DynamicModel{Window: window}
		_, s := mustRun(t, &c, prog(main))
		m8, _ := s.Memory().Peek(8)
		m9, _ := s.Memory().Peek(9)
		if m8.AsInt() != 0 || m9.AsInt() != 2 {
			t.Errorf("window %d: mem[8], mem[9] = %v, %v; want 0, 2 (the taken branch's successor)", window, m8, m9)
		}
	}
}

func TestPriorityArbitration(t *testing.T) {
	// Two identical threads compete for the single IU in cluster 0
	// (single-cluster code). The lower-numbered thread must finish first.
	seg := func(name string) *isa.ThreadCode {
		var words []isa.Instruction
		for i := 0; i < 10; i++ {
			words = append(words, word(opAdd(uIU0, r(0, 0), isa.ImmInt(int64(i)), isa.ImmInt(1))))
		}
		words = append(words, word(opHalt()))
		return &isa.ThreadCode{Name: name, Instrs: words}
	}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 2}),
		word(opHalt()),
	}}
	res, _ := mustRun(t, miniMachine(), prog(main, seg("a"), seg("b")))
	var haltA, haltB int64
	for _, th := range res.Threads {
		switch th.Segment {
		case "a":
			haltA = th.HaltAt
		case "b":
			haltB = th.HaltAt
		}
	}
	if haltA >= haltB {
		t.Errorf("priority violated: thread a halted at %d, b at %d", haltA, haltB)
	}
}

func TestRoundRobinSharesFairly(t *testing.T) {
	seg := func(name string) *isa.ThreadCode {
		var words []isa.Instruction
		for i := 0; i < 20; i++ {
			words = append(words, word(opAdd(uIU0, r(0, 0), isa.ImmInt(int64(i)), isa.ImmInt(1))))
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
	cfg.Arbitration = machine.RoundRobinArbitration
	res, _ := mustRun(t, cfg, prog(main, seg("a"), seg("b")))
	var haltA, haltB int64
	for _, th := range res.Threads {
		switch th.Segment {
		case "a":
			haltA = th.HaltAt
		case "b":
			haltB = th.HaltAt
		}
	}
	diff := haltA - haltB
	if diff < 0 {
		diff = -diff
	}
	// Under round-robin the two equal threads should finish within a few
	// cycles of each other (under priority, thread a wins by ~20).
	if diff > 5 {
		t.Errorf("round-robin imbalance: a=%d b=%d", haltA, haltB)
	}
}

func TestMaxThreadsBlocksFork(t *testing.T) {
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)), // blocks until main stores
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opStore(uMEM0, isa.ImmInt(1), 8)),
		word(opHalt()),
	}}
	cfg := miniMachine()
	cfg.MaxThreads = 2 // main + 1 worker
	res, _ := mustRun(t, cfg, prog(main, worker))
	if len(res.Threads) != 4 {
		t.Fatalf("threads = %d, want 4", len(res.Threads))
	}
	// The run completes because forks stall until workers halt; workers
	// halt only after the store, which main reaches only after... the
	// store comes after the forks, so the first two workers block on the
	// flag until main stores. With MaxThreads=2 the second fork waits for
	// worker 1 to halt. Deadlock is avoided because the store is what
	// releases them — verify ordering: worker spawn times are separated.
	var spawns []int64
	for _, th := range res.Threads {
		if th.Segment == "w" {
			spawns = append(spawns, th.SpawnAt)
		}
	}
	if len(spawns) != 3 {
		t.Fatalf("worker count %d", len(spawns))
	}
	if !(spawns[0] < spawns[1] && spawns[1] < spawns[2]) {
		t.Errorf("spawns not serialized: %v", spawns)
	}
}

// TestImplicitHaltWakesFork: a thread that ends without issuing a halt
// frees its thread slot just as a halt does, so a fork blocked on
// MaxActiveThreads goes on. In "ran-off-code" main's second fork waits
// for the first child, which runs off the end of its code. In
// "empty-segment" b's fork loses the branch unit to main's fork of a
// segment with no operation, whose thread is halted from its spawn on,
// so it never holds a slot. Under either kernel both runs must finish,
// not report a deadlock.
func TestImplicitHaltWakesFork(t *testing.T) {
	child := &isa.ThreadCode{Name: "child", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(2))),
		word(opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(3))),
	}}
	forker := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opHalt()),
	}}
	empty := &isa.ThreadCode{Name: "empty", Instrs: []isa.Instruction{word()}}
	b := &isa.ThreadCode{Name: "b", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opStore(uMEM1, isa.ImmInt(1), 8)), // releases main
		word(opHalt()),
	}}
	waiter := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 2}),
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)),
		word(opHalt()),
	}}
	flag := prog(waiter, empty, b)
	flag.Data = []isa.DataSegment{{Name: "flag", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}
	for _, tc := range []struct {
		name       string
		prog       *isa.Program
		maxThreads int
		cycles     int64
	}{
		{"ran-off-code", prog(forker, child), 2, 7},
		{"empty-segment", flag, 3, 6},
	} {
		for _, kernel := range []struct {
			name string
			opts []Option
		}{{"event", nil}, {"ticking", []Option{WithCycleSkipping(false)}}} {
			t.Run(tc.name+"/"+kernel.name, func(t *testing.T) {
				cfg := miniMachine()
				cfg.MaxThreads = tc.maxThreads
				s, err := New(cfg, tc.prog, kernel.opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(10000)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles != tc.cycles {
					t.Errorf("cycles %d, want %d", res.Cycles, tc.cycles)
				}
			})
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncConsume)), // nothing ever stores
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 9)),
		word(opHalt()),
	}}
	p := prog(main)
	p.Data = []isa.DataSegment{{Name: "cell", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}
	s, err := New(miniMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100000)
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if len(de.Threads) == 0 || !strings.Contains(de.Error(), "deadlock") {
		t.Errorf("deadlock diagnostics missing: %v", de)
	}
}

func TestLocalityValidation(t *testing.T) {
	// An op on cluster 0 reading a cluster-1 register must be rejected.
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.Reg(r(1, 0)), isa.ImmInt(1))),
		word(opHalt()),
	}}
	if _, err := New(miniMachine(), prog(main)); err == nil {
		t.Error("accepted op with remote source register")
	}
}

func TestWrongUnitValidation(t *testing.T) {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpAdd, Unit: uMEM0, Dests: []isa.RegRef{r(0, 0)}, Srcs: []isa.Operand{isa.ImmInt(1), isa.ImmInt(1)}}),
		word(opHalt()),
	}}
	if _, err := New(miniMachine(), prog(main)); err == nil {
		t.Error("accepted IU op scheduled on MEM unit")
	}
}

func TestStatsAccounting(t *testing.T) {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(
			opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(2)),
			opAdd(uIU1, r(1, 0), isa.ImmInt(3), isa.ImmInt(4)),
		),
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 8)),
		word(opHalt()),
	}}
	res, _ := mustRun(t, miniMachine(), prog(main))
	if res.IssuedByKind[machine.IU] != 2 {
		t.Errorf("IU ops = %d", res.IssuedByKind[machine.IU])
	}
	if res.IssuedByKind[machine.MEM] != 1 {
		t.Errorf("MEM ops = %d", res.IssuedByKind[machine.MEM])
	}
	if res.IssuedByKind[machine.BR] != 1 {
		t.Errorf("BR ops = %d", res.IssuedByKind[machine.BR])
	}
	if res.IssuedByUnit[uIU0] != 1 || res.IssuedByUnit[uIU1] != 1 {
		t.Errorf("per-unit counts = %v", res.IssuedByUnit)
	}
	if res.Utilization(machine.IU) <= 0 {
		t.Error("utilization not computed")
	}
	if len(res.Threads) != 1 || res.Threads[0].OpsIssued != 4 {
		t.Errorf("thread stats = %+v", res.Threads)
	}
	if res.PeakRegsPerCluster[0] < 1 || res.PeakRegsPerCluster[1] < 1 {
		t.Errorf("peak regs = %v", res.PeakRegsPerCluster)
	}
}

func TestWritebackContention(t *testing.T) {
	// Many independent ops writing to the same cluster: under a
	// single-port file they serialize, under full they do not.
	build := func() *isa.Program {
		var words []isa.Instruction
		for i := 0; i < 8; i++ {
			words = append(words, word(
				opAdd(uIU0, r(0, i), isa.ImmInt(int64(i)), isa.ImmInt(1)),
				opAdd(uIU1, r(0, i+8), isa.ImmInt(int64(i)), isa.ImmInt(2)),
			))
		}
		words = append(words, word(opStore(uMEM0, isa.Reg(r(0, 0)), 8)))
		words = append(words, word(opHalt()))
		return prog(&isa.ThreadCode{Name: "main", Instrs: words})
	}
	full, _ := mustRun(t, miniMachine(), build())
	cfgSP := miniMachine()
	cfgSP.Interconnect = machine.SinglePort
	single, _ := mustRun(t, cfgSP, build())
	if single.WritebackRetries == 0 {
		t.Error("single-port run recorded no writeback retries")
	}
	if single.Cycles <= full.Cycles {
		t.Errorf("single-port (%d) not slower than full (%d)", single.Cycles, full.Cycles)
	}
}

func TestHaltLastInWord(t *testing.T) {
	// A halt sharing a word with another op must not retire the thread
	// until that op has issued (regression test for the abandoned-word
	// bug): main's final store waits a long time for its operand, and the
	// halt in the same word must wait with it.
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opAdd(uIU1, r(1, 0), isa.ImmInt(30), isa.ImmInt(0))),
		word(opAdd(uIU1, r(1, 0), isa.Reg(r(1, 0)), isa.ImmInt(1))),
		word(opStore(uMEM1, isa.Reg(r(1, 0)), 8)), // fills the cell with 31
		word(opHalt()),
	}}
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpFork, Unit: uBR, Target: 1}),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)), // parks until worker stores
		word(
			opStore(uMEM0, isa.Reg(r(0, 0)), 9),
			opHalt(),
		),
	}}
	p := prog(main, worker)
	p.Data = []isa.DataSegment{{Name: "cell", Addr: 8, Values: []isa.Value{isa.Int(0)}, Full: false}}
	_, s := mustRun(t, miniMachine(), p)
	if v, _ := s.Memory().Peek(9); v.AsInt() != 31 {
		t.Errorf("store abandoned by early halt: mem[9] = %v", v)
	}
}

func TestMultiDestWrite(t *testing.T) {
	// One op writing two clusters: both copies must land.
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(&isa.Op{Code: isa.OpAdd, Unit: uIU0, Dests: []isa.RegRef{r(0, 0), r(1, 0)},
			Srcs: []isa.Operand{isa.ImmInt(20), isa.ImmInt(3)}}),
		word(
			opStore(uMEM0, isa.Reg(r(0, 0)), 8),
			opStore(uMEM1, isa.Reg(r(1, 0)), 9),
		),
		word(opHalt()),
	}}
	_, s := mustRun(t, miniMachine(), prog(main))
	for _, addr := range []int64{8, 9} {
		if v, _ := s.Memory().Peek(addr); v.AsInt() != 23 {
			t.Errorf("mem[%d] = %v, want 23", addr, v)
		}
	}
}

func TestOpCacheModel(t *testing.T) {
	// A loop executed many times: with a large cache, misses happen only
	// on first touch; with the model off, none at all. The miss penalty
	// must slow the run down without changing results.
	build := func() *isa.Program {
		// The loop body has two words on IU0 so a one-entry cache
		// thrashes between their addresses every iteration.
		main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
			word(&isa.Op{Code: isa.OpMov, Unit: uIU0, Dests: []isa.RegRef{r(0, 0)}, Srcs: []isa.Operand{isa.ImmInt(6)}}),
			word(&isa.Op{Code: isa.OpSub, Unit: uIU0, Dests: []isa.RegRef{r(0, 0), r(2, 0)}, Srcs: []isa.Operand{isa.Reg(r(0, 0)), isa.ImmInt(1)}}),
			word(&isa.Op{Code: isa.OpAdd, Unit: uIU0, Dests: []isa.RegRef{r(0, 1)}, Srcs: []isa.Operand{isa.Reg(r(0, 0)), isa.ImmInt(100)}}),
			word(&isa.Op{Code: isa.OpBt, Unit: uBR, Srcs: []isa.Operand{isa.Reg(r(2, 0))}, Target: 1}),
			word(opStore(uMEM0, isa.Reg(r(0, 0)), 8)),
			word(opHalt()),
		}}
		return prog(main)
	}
	base := miniMachine()
	plain, _ := mustRun(t, base, build())
	if plain.OpCacheMisses != 0 {
		t.Errorf("misses recorded with model off: %d", plain.OpCacheMisses)
	}

	cached := miniMachine()
	cached.OpCache = machine.OpCacheModel{Entries: 64, MissPenalty: 4}
	res, s := mustRun(t, cached, build())
	if v, _ := s.Memory().Peek(8); v.AsInt() != 0 {
		t.Errorf("mem[8] = %v, want 0", v)
	}
	// First touch of each (unit, word) pair misses; loop iterations after
	// that hit.
	if res.OpCacheMisses == 0 {
		t.Error("no cold misses recorded")
	}
	if res.OpCacheMisses > 8 {
		t.Errorf("misses = %d, expected only cold misses", res.OpCacheMisses)
	}
	if res.Cycles <= plain.Cycles {
		t.Errorf("op cache penalty did not slow the run (%d vs %d)", res.Cycles, plain.Cycles)
	}

	// A one-entry cache thrashes: far more misses, far slower.
	tiny := miniMachine()
	tiny.OpCache = machine.OpCacheModel{Entries: 1, MissPenalty: 4}
	res2, _ := mustRun(t, tiny, build())
	if res2.OpCacheMisses <= res.OpCacheMisses {
		t.Errorf("thrashing cache misses %d <= cold misses %d", res2.OpCacheMisses, res.OpCacheMisses)
	}
	if res2.Cycles <= res.Cycles {
		t.Errorf("thrashing cache not slower (%d vs %d)", res2.Cycles, res.Cycles)
	}
}
