package sim

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/memsys"
	"pcoup/internal/regfile"
)

// pingPong builds a straight-line two-thread program that bounces
// ownership of two synchronization cells back and forth rounds times:
// main produces cell 8 and consumes cell 9; the worker consumes cell 8
// and produces cell 9. Every round parks references and exercises the
// split-transaction reactivation path, which is where memory wakeup
// faults are injected.
func pingPong(rounds int) *isa.Program {
	var mainWords, workerWords []isa.Instruction
	mainWords = append(mainWords, word(forkOp(1)))
	for i := 0; i < rounds; i++ {
		mainWords = append(mainWords,
			word(&isa.Op{Code: isa.OpStore, Unit: uMEM0, Sync: isa.SyncProduce,
				Srcs: []isa.Operand{isa.ImmInt(int64(i))}, Offset: 8}),
			word(&isa.Op{Code: isa.OpLoad, Unit: uMEM0, Sync: isa.SyncConsume,
				Dests: []isa.RegRef{r(0, 0)}, Offset: 9}),
		)
		workerWords = append(workerWords,
			word(&isa.Op{Code: isa.OpLoad, Unit: uMEM1, Sync: isa.SyncConsume,
				Dests: []isa.RegRef{r(1, 0)}, Offset: 8}),
			word(&isa.Op{Code: isa.OpStore, Unit: uMEM1, Sync: isa.SyncProduce,
				Srcs: []isa.Operand{isa.Reg(r(1, 0))}, Offset: 9}),
		)
	}
	mainWords = append(mainWords, word(opHalt()))
	workerWords = append(workerWords, word(opHalt()))
	p := prog(
		&isa.ThreadCode{Name: "main", Instrs: mainWords},
		&isa.ThreadCode{Name: "w", Instrs: workerWords},
	)
	p.Data = []isa.DataSegment{{Name: "cells", Addr: 8, Values: []isa.Value{isa.Int(0), isa.Int(0)}, Full: false}}
	return p
}

// faultyMachine is the mini machine with every fault class enabled at
// rates high enough that a ping-pong run observes all of them.
func faultyMachine() *machine.Config {
	cfg := miniMachine()
	cfg.Faults = faults.Model{
		Seed:        7,
		MemDropRate: 0.3, MemDelayRate: 0.2, MemDelayMax: 5,
		PortOutageRate: 0.05, PortOutageCycles: 2,
		UnitOutageRate: 0.02, UnitOutageCycles: 3,
	}
	return cfg
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() *Result {
		s, err := New(faultyMachine(), pingPong(30), WithWatchdog(8, 1<<20), WithStallAttribution())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(200_000)
		if err != nil {
			t.Fatalf("faulty run failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if ja, jb := resultJSON(t, a), resultJSON(t, b); ja != jb {
		t.Fatalf("two runs with the same fault seed differ:\n%s\n%s", ja, jb)
	}
	if a.Faults == nil {
		t.Fatal("Result.Faults nil with fault model enabled")
	}
	if a.Faults.MemDropped == 0 {
		t.Errorf("expected dropped wakeups at rate 0.3: %+v", a.Faults)
	}
	if a.Faults.WakeupsRecovered < a.Faults.MemDropped {
		t.Errorf("dropped %d wakeups but recovered only %d — run should not have completed",
			a.Faults.MemDropped, a.Faults.WakeupsRecovered)
	}
	if a.Faults.MemDelayed == 0 {
		t.Errorf("expected delayed wakeups at rate 0.2: %+v", a.Faults)
	}
}

func TestFaultSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := faultyMachine()
		cfg.Faults.Seed = seed
		s, err := New(cfg, pingPong(30), WithWatchdog(8, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(200_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return res
	}
	a, b := run(1), run(2)
	if a.Cycles == b.Cycles && a.Faults.MemDropped == b.Faults.MemDropped && a.Faults.MemDelayed == b.Faults.MemDelayed {
		t.Errorf("different fault seeds produced an identical run: %+v vs %+v", a.Faults, b.Faults)
	}
}

func TestWatchdogDisabledFaultsDeadlock(t *testing.T) {
	// Dropped wakeups with no recovery must surface as a DeadlockError
	// rather than hanging or completing wrongly.
	cfg := miniMachine()
	cfg.Faults = faults.Model{Seed: 7, MemDropRate: 1.0}
	s, err := New(cfg, pingPong(5), WithWatchdog(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error = %v (%T), want *DeadlockError", err, err)
	}
}

func TestWatchdogNoOpOnHealthyMachine(t *testing.T) {
	// The lost-wakeup retry must be provably inert without faults: the
	// same healthy program with the watchdog disabled and with an
	// aggressive watchdog (window 2, so it fires during every legitimate
	// synchronization park) produces byte-identical results.
	run := func(opts ...Option) *Result {
		s, err := New(miniMachine(), pingPong(20), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(100_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	disabled := run(WithWatchdog(2, 0))
	enabled := run(WithWatchdog(2, 1<<20))
	if jd, je := resultJSON(t, disabled), resultJSON(t, enabled); jd != je {
		t.Fatalf("watchdog perturbed a healthy run:\ndisabled: %s\nenabled:  %s", jd, je)
	}
}

// crossDeadlocked builds the classic inter-thread synchronization
// deadlock: each thread waits on a cell that only the other thread's
// later (postcondition) store would fill.
func crossDeadlocked() *isa.Program {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(forkOp(1)),
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncWaitFull)), // filled only by w's store
		word(opStore(uMEM0, isa.Reg(r(0, 0)), 9)),         // would fill w's wait
		word(opHalt()),
	}}
	worker := &isa.ThreadCode{Name: "w", Instrs: []isa.Instruction{
		word(opLoad(uMEM1, r(1, 0), 9, isa.SyncWaitFull)), // filled only by main's store
		word(opStore(uMEM1, isa.Reg(r(1, 0)), 8)),         // would fill main's wait
		word(opHalt()),
	}}
	p := prog(main, worker)
	p.Data = []isa.DataSegment{{Name: "cells", Addr: 8, Values: []isa.Value{isa.Int(0), isa.Int(0)}, Full: false}}
	return p
}

func TestCrossThreadSyncDeadlockNamesBothThreads(t *testing.T) {
	s, err := New(miniMachine(), crossDeadlocked())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100_000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error = %v (%T), want *DeadlockError", err, err)
	}
	all := strings.Join(de.Threads, "\n")
	for _, want := range []string{"thread 0 (main)", "thread 1 (w)", "waiting addr 8", "waiting addr 9", "pc="} {
		if !strings.Contains(all, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, all)
		}
	}
}

func TestCrossThreadDeadlockIdenticalWithWatchdog(t *testing.T) {
	// A genuine deadlock is not a lost wakeup: the watchdog's retry must
	// not change the diagnosis (the parked queues' directions are all
	// disabled, so recovery finds nothing).
	diag := func(opts ...Option) *DeadlockError {
		s, err := New(miniMachine(), crossDeadlocked(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(100_000)
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("error = %v (%T), want *DeadlockError", err, err)
		}
		return de
	}
	a := diag(WithWatchdog(2, 0))
	b := diag(WithWatchdog(2, 1<<20))
	if a.Cycle != b.Cycle || a.Detail != b.Detail || strings.Join(a.Threads, "\n") != strings.Join(b.Threads, "\n") {
		t.Errorf("watchdog changed deadlock diagnosis:\n%v\nvs\n%v", a, b)
	}
}

func TestAddressFaultTyped(t *testing.T) {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opStore(uMEM0, isa.ImmInt(1), 1000)), // MemWords is 64
		word(opHalt()),
	}}
	s, err := New(miniMachine(), prog(main))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(10_000)
	var ae *memsys.AddressError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v (%T), want wrapped *memsys.AddressError", err, err)
	}
	if ae.Addr != 1000 || !ae.IsStore || ae.Size != 64 {
		t.Errorf("AddressError = %+v, want addr 1000, store, size 64", ae)
	}
}

// ludMachine is the lud Coupled cell's machine on Min memory under the
// given arbitration.
func ludMachine(arb machine.ArbitrationKind) func() *machine.Config {
	return func() *machine.Config {
		cfg := machine.Baseline()
		cfg.Arbitration = arb
		return cfg
	}
}

// haltedThreads counts the checkpoint's halted thread records.
func haltedThreads(ck *Checkpoint) int {
	n := 0
	for _, ts := range ck.Threads {
		if ts.Halted {
			n++
		}
	}
	return n
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	pp := func(*testing.T, *machine.Config) *isa.Program { return pingPong(30) }
	lud := func(t *testing.T, cfg *machine.Config) *isa.Program { return compileBench(t, "lud", cfg) }
	for _, tc := range []struct {
		name string
		cfg  func() *machine.Config
		prog func(*testing.T, *machine.Config) *isa.Program
		opts []Option
		// minHalted is how many threads must have halted at the
		// resumed checkpoint: the lud cases resume across thread churn,
		// with the live-thread list far shorter than the spawned list.
		minHalted int
	}{
		{"healthy", miniMachine, pp, nil, 0},
		{"healthy-attrib", miniMachine, pp, []Option{WithStallAttribution()}, 0},
		{"faulty", faultyMachine, pp, []Option{WithWatchdog(8, 1<<20)}, 0},
		{"lud-priority", ludMachine(machine.PriorityArbitration), lud, nil, 100},
		{"lud-roundrobin", ludMachine(machine.RoundRobinArbitration), lud, nil, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog(t, tc.cfg())

			// Uninterrupted reference run.
			ref, err := New(tc.cfg(), p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(200_000)
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointing run: capture a snapshot mid-execution.
			var cks []*Checkpoint
			every := want.Cycles / 3
			if every < 1 {
				every = 1
			}
			opts := append([]Option{WithCheckpointEvery(every, func(ck *Checkpoint) error {
				cks = append(cks, ck)
				return nil
			})}, tc.opts...)
			ck1, err := New(tc.cfg(), p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ck1.Run(200_000); err != nil {
				t.Fatal(err)
			}
			if len(cks) == 0 {
				t.Fatal("no checkpoints captured")
			}
			mid := cks[len(cks)/2]
			if n := haltedThreads(mid); n < tc.minHalted {
				t.Fatalf("checkpoint at cycle %d has %d halted threads, want >= %d", mid.Cycle, n, tc.minHalted)
			}

			// Round-trip the checkpoint through JSON (the wire format).
			data, err := json.Marshal(mid)
			if err != nil {
				t.Fatal(err)
			}
			var loaded Checkpoint
			if err := json.Unmarshal(data, &loaded); err != nil {
				t.Fatal(err)
			}

			// Resume from the checkpoint; the final result must be
			// byte-identical to the uninterrupted run.
			res, err := New(tc.cfg(), p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Restore(&loaded); err != nil {
				t.Fatal(err)
			}
			got, err := res.Run(200_000)
			if err != nil {
				t.Fatal(err)
			}
			if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
				t.Fatalf("resumed run differs from uninterrupted run:\nwant %s\ngot  %s", jw, jg)
			}
		})
	}
}

// TestRestoreRejectsUnreachableStates: Restore returns an error, never
// a panic, for checkpoint states no run produces — a thread whose
// priority is not its ID, thread records out of ID order, pending
// spawns that are not the newest threads, and an issued empty slot —
// so the restored live-thread list is in arbitration order by
// construction.
func TestRestoreRejectsUnreachableStates(t *testing.T) {
	p := pingPong(5)
	s, err := New(miniMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Stop after the fork: both threads are running.
	var be *BudgetError
	if _, err := s.Run(6); !errors.As(err, &be) {
		t.Fatalf("short run: %v, want a budget stop", err)
	}
	ck, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Threads) != 2 || ck.Threads[0].Halted || ck.Threads[1].Halted {
		t.Fatalf("want two running threads at cycle %d, got %+v", ck.Cycle, ck.Threads)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(ck *Checkpoint)
		want string
	}{
		{"priority-not-id", func(ck *Checkpoint) { ck.Threads[1].Priority = 0 }, "priority"},
		{"threads-out-of-order", func(ck *Checkpoint) {
			ck.Threads[0], ck.Threads[1] = ck.Threads[1], ck.Threads[0]
		}, "ID"},
		{"pending-not-newest", func(ck *Checkpoint) { ck.PendingSpawns = []int{0} }, "pending"},
		{"pending-duplicated", func(ck *Checkpoint) { ck.PendingSpawns = []int{1, 1} }, "pending"},
		{"issued-empty-slot", func(ck *Checkpoint) {
			ts := &ck.Threads[0]
			for slot := range ts.Issued {
				if p.Segments[ts.SegIdx].Instrs[ts.IP].Ops[slot] == nil {
					ts.Issued[slot] = true
					return
				}
			}
			t.Fatal("head word has no empty slot")
		}, "empty slot"},
		// Register files hold only the registers a thread's segment
		// names; no run touches any other.
		{"regs-beyond-segment", func(ck *Checkpoint) {
			ck.Threads[0].Regs[0] = regfile.FileState{Vals: make([]isa.Value, 1000), Valid: make([]bool, 1000), Peak: 1000}
		}, "regfile"},
		{"writeback-beyond-segment", func(ck *Checkpoint) {
			ck.Writebacks = append(ck.Writebacks, wbState{Thread: 0, Dst: r(0, 999), ReadyAt: ck.Cycle + 1, Seq: ck.WbSeq + 1})
		}, "not one of thread 0's"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bad Checkpoint
			if err := json.Unmarshal(data, &bad); err != nil {
				t.Fatal(err)
			}
			tc.mut(&bad)
			r, err := New(miniMachine(), p)
			if err != nil {
				t.Fatal(err)
			}
			err = r.Restore(&bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	// The unmodified checkpoint still restores.
	var good Checkpoint
	if err := json.Unmarshal(data, &good); err != nil {
		t.Fatal(err)
	}
	r, err := New(miniMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(&good); err != nil {
		t.Fatalf("Restore of an untouched checkpoint: %v", err)
	}
}

func TestRestoreRejectsMismatchedMachine(t *testing.T) {
	p := pingPong(5)
	s, err := New(miniMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := miniMachine()
	other.Interconnect = machine.SinglePort
	s2, err := New(other, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(ck); err == nil {
		t.Fatal("restore onto a different machine accepted")
	}
	s3, err := New(faultyMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(ck); err == nil {
		t.Fatal("restore of a fault-free checkpoint onto a faulty machine accepted")
	}
}

func TestUnitOutagesStallAttribution(t *testing.T) {
	// With only unit degradation windows enabled, stalled cycles behind a
	// down unit must be classified as CauseFault.
	cfg := miniMachine()
	cfg.Faults = faults.Model{Seed: 3, UnitOutageRate: 0.2, UnitOutageCycles: 4}
	var wordsA []isa.Instruction
	for i := 0; i < 40; i++ {
		wordsA = append(wordsA, word(opAdd(uIU0, r(0, 0), isa.ImmInt(int64(i)), isa.ImmInt(1))))
	}
	wordsA = append(wordsA, word(opHalt()))
	p := prog(&isa.ThreadCode{Name: "main", Instrs: wordsA})
	s, err := New(cfg, p, WithStallAttribution())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.UnitOutages == 0 {
		t.Fatalf("expected unit outages at rate 0.2: %+v", res.Faults)
	}
	if res.Stalls.Total[CauseFault] == 0 {
		t.Errorf("no cycles classified as fault stalls: %v", res.Stalls.Total)
	}
}
