package sim

import (
	"encoding/json"
	"errors"
	"io"
	"testing"

	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// slowMachine is the mini machine with a uniform long memory latency, so
// a dependent chain through memory leaves the machine provably idle for
// thousands of cycles at a time — the event core's best case.
func slowMachine(latency int) *machine.Config {
	cfg := miniMachine()
	cfg.Memory = machine.MemoryModel{Name: "slow", HitLatency: latency, Banks: 4}
	return cfg
}

// loadChain builds a single-thread program whose critical path is one
// long-latency load: load r0, add r0+1, store the sum, halt.
func loadChain() *isa.Program {
	main := &isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opLoad(uMEM0, r(0, 0), 8, isa.SyncNone)),
		word(opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(1))),
		word(opStore(uMEM0, isa.Reg(r(0, 1)), 9)),
		word(opHalt()),
	}}
	return prog(main)
}

// TestEventCoreSkipsLongLatency: the event core must produce the
// bit-identical Result while actually jumping over the dead cycles, and
// a multi-thousand-cycle jump must not trip the deadlock window (the
// latency here is far below stallLimit, so a DeadlockError would be a
// false positive introduced by the jump).
func TestEventCoreSkipsLongLatency(t *testing.T) {
	run := func(opts ...Option) (*Result, *Sim) {
		s, err := New(slowMachine(5000), loadChain(), append([]Option{WithStallAttribution()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(50_000)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res, s
	}
	want, ticking := run(WithCycleSkipping(false))
	got, event := run()
	if ticking.SkippedCycles() != 0 {
		t.Errorf("ticking kernel skipped %d cycles, want 0", ticking.SkippedCycles())
	}
	if event.SkippedCycles() < 4000 {
		t.Errorf("event core skipped %d cycles, want > 4000", event.SkippedCycles())
	}
	if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
		t.Errorf("event core result differs from ticking kernel:\nwant %s\ngot  %s", jw, jg)
	}
	// Conservation across skips: every active thread-cycle — executed or
	// skipped — carries exactly one classification.
	var active int64
	for _, th := range got.Threads {
		active += th.HaltAt - th.SpawnAt
	}
	if got.Stalls == nil || got.Stalls.Slots != active {
		t.Fatalf("stall slots = %+v, want %d classified thread-cycles", got.Stalls, active)
	}
	if tot := got.Stalls.Total.Total(); tot != got.Stalls.Slots {
		t.Errorf("stall breakdown sums to %d, want Slots = %d", tot, got.Stalls.Slots)
	}
}

// TestEventCoreDeadlockIdentical: when the machine genuinely stalls past
// the window (latency beyond stallLimit), the event core must report the
// DeadlockError at exactly the cycle the ticking kernel reports it —
// the deadlock window is a skip horizon, not a casualty of the jump.
func TestEventCoreDeadlockIdentical(t *testing.T) {
	run := func(opts ...Option) error {
		s, err := New(slowMachine(30_000), loadChain(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(200_000)
		if err == nil {
			t.Fatal("run completed; want DeadlockError")
		}
		return err
	}
	errTick := run(WithCycleSkipping(false))
	errEvent := run()
	var dlTick, dlEvent *DeadlockError
	if !errors.As(errTick, &dlTick) || !errors.As(errEvent, &dlEvent) {
		t.Fatalf("want DeadlockError from both kernels, got ticking=%v event=%v", errTick, errEvent)
	}
	if dlTick.Cycle != dlEvent.Cycle || errTick.Error() != errEvent.Error() {
		t.Errorf("deadlock diverged:\nticking %v\nevent   %v", errTick, errEvent)
	}
}

// TestEventCoreCheckpointCadence: checkpoints must land on every multiple
// of ckptEvery even when the event core jumps across several boundaries'
// worth of idle cycles at once, and each checkpoint must be byte-identical
// to the ticking kernel's.
func TestEventCoreCheckpointCadence(t *testing.T) {
	const every = 64
	run := func(opts ...Option) (*Result, []*Checkpoint, *Sim) {
		var cks []*Checkpoint
		opts = append([]Option{WithCheckpointEvery(every, func(ck *Checkpoint) error {
			cks = append(cks, ck)
			return nil
		})}, opts...)
		s, err := New(slowMachine(5000), loadChain(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(50_000)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res, cks, s
	}
	want, ckTick, _ := run(WithCycleSkipping(false))
	got, ckEvent, event := run()
	if event.SkippedCycles() == 0 {
		t.Fatal("event core never skipped; cadence test is vacuous")
	}
	if len(ckEvent) != len(ckTick) {
		t.Fatalf("event core took %d checkpoints, ticking took %d", len(ckEvent), len(ckTick))
	}
	for i, ck := range ckEvent {
		if wantCycle := int64(every) * int64(i+1); ck.Cycle != wantCycle {
			t.Fatalf("checkpoint %d at cycle %d, want %d (skipped boundary)", i, ck.Cycle, wantCycle)
		}
		jt, err := json.Marshal(ckTick[i])
		if err != nil {
			t.Fatal(err)
		}
		je, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if string(jt) != string(je) {
			t.Fatalf("checkpoint at cycle %d differs between kernels:\nticking %s\nevent   %s", ck.Cycle, jt, je)
		}
	}
	if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
		t.Errorf("results diverged:\nwant %s\ngot  %s", jw, jg)
	}

	// Resume from a checkpoint taken across a skipped region (mid-run,
	// deep inside the load's latency) and finish byte-identically.
	mid := ckEvent[len(ckEvent)/2]
	data, err := json.Marshal(mid)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Checkpoint
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(slowMachine(5000), loadChain())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&loaded); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if jw, jg := resultJSON(t, want), resultJSON(t, res); jw != jg {
		t.Errorf("resume from skipped-region checkpoint diverged:\nwant %s\ngot  %s", jw, jg)
	}
}

// TestEventCoreMatchesTickingWithFaults exercises delayed and dropped
// wakeups (plus port outages) across skips: the injected fault schedule
// draws RNG only at commits and active drains, so the event core must
// reproduce the ticking kernel's faulty run bit for bit — results and
// checkpoint stream both. Unit outages are absent so skipping stays
// enabled (the issue phase draws outage RNG per slot per cycle, which
// forces per-cycle mode).
func TestEventCoreMatchesTickingWithFaults(t *testing.T) {
	memFaultMachine := func() *machine.Config {
		cfg := miniMachine()
		cfg.Faults = faults.Model{
			Seed:        7,
			MemDropRate: 0.3, MemDelayRate: 0.2, MemDelayMax: 5,
			PortOutageRate: 0.05, PortOutageCycles: 2,
		}
		return cfg
	}
	run := func(opts ...Option) (*Result, []*Checkpoint, *Sim) {
		var cks []*Checkpoint
		opts = append([]Option{
			WithWatchdog(8, 1<<20),
			WithStallAttribution(),
			WithCheckpointEvery(97, func(ck *Checkpoint) error {
				cks = append(cks, ck)
				return nil
			}),
		}, opts...)
		s, err := New(memFaultMachine(), pingPong(30), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(200_000)
		if err != nil {
			t.Fatalf("faulty run failed: %v", err)
		}
		return res, cks, s
	}
	want, ckTick, _ := run(WithCycleSkipping(false))
	got, ckEvent, event := run()
	if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
		t.Fatalf("faulty run diverged:\nwant %s\ngot  %s", jw, jg)
	}
	if len(ckEvent) != len(ckTick) {
		t.Fatalf("event core took %d checkpoints, ticking took %d", len(ckEvent), len(ckTick))
	}
	for i := range ckEvent {
		jt, err := json.Marshal(ckTick[i])
		if err != nil {
			t.Fatal(err)
		}
		je, err := json.Marshal(ckEvent[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(jt) != string(je) {
			t.Fatalf("checkpoint %d differs between kernels under faults", i)
		}
	}
	t.Logf("event core skipped %d of %d cycles under mem faults", event.SkippedCycles(), got.Cycles)
}

// TestEventCoreObserversKeepSkipping pins which installations force the
// ticking kernel: observers (every consumer at once) never do, and
// per-cycle fault draws still do.
func TestEventCoreObserversKeepSkipping(t *testing.T) {
	cfg := slowMachine(5000)
	plain, err := New(cfg, loadChain())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(50_000); err != nil {
		t.Fatal(err)
	}
	observed, err := New(cfg, loadChain(),
		WithObserver(NewTextTrace(io.Discard)), WithObserver(NewJSONTracer(cfg)),
		WithObserver(NewTimeline(cfg, 64)), WithObserver(NewInterleaveRecorder(cfg, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := observed.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if got, want := observed.SkippedCycles(), plain.SkippedCycles(); got != want || want == 0 {
		t.Errorf("skipped %d cycles with every observer installed, %d without (want equal and > 0)", got, want)
	}
	// Unit outages draw RNG per slot per cycle.
	s, err := New(faultyMachine(), pingPong(5), WithWatchdog(8, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if s.SkippedCycles() != 0 {
		t.Errorf("skipped %d cycles with unit-outage injection, want 0", s.SkippedCycles())
	}
}
