package sim

// The event core: cycle skipping over provably idle stretches.
//
// The ticking kernel executes every cycle even when every thread is
// blocked on a memory presence bit or a long-latency reference — the
// common case on memory-bound cells (LUD, the Mem1/Mem2 latency models).
// The event core jumps over those cycles: immediately after a step in
// which nothing happened (no memory completion, no writeback
// arbitration, no issue), the machine state is frozen, so the next cycle
// that can possibly do work is computable in O(outstanding refs). Run
// then advances s.cycle (and the memory clock) there directly.
//
// Exactness argument, per input of step:
//
//   - Issue: the issue phase reads only registers, presence bits,
//     thread counters, and issue windows. A quiet cycle changes
//     none of them, and the exhaustive per-unit scan found no ready
//     (unit, thread) pair, so no arbitration order (including the
//     round-robin rotation, which varies by cycle) could issue anything
//     on any skipped cycle.
//   - Memory: memsys.SkipBudget bounds the jump to ticks with no
//     arrival, no parked-queue service, no delayed-reactivation
//     promotion, and no bank-queue start; memsys.SkipTicks ages the
//     in-flight references exactly as that many empty Ticks would.
//   - Writebacks: the jump stops one cycle before the earliest readyAt,
//     so drainWritebacks would have early-outed on every skipped cycle
//     (and a writeback that lost arbitration keeps readyAt <= cycle,
//     which forces the budget to 0 — port-outage windows therefore
//     retry cycle by cycle exactly as before).
//   - Stall attribution: classify() depends on the cycle number only
//     through `readyAt <= cycle` comparisons, whose verdicts the
//     writeback bound keeps constant across the skipped range, so one
//     classification per thread is credited k times (conservation:
//     every active thread still gets exactly one cause per cycle) and
//     reaches the observers as one k-cycle stall span.
//   - Observers: issue, writeback, and spawn events happen only on
//     executed cycles, and a skipped cycle has none of them.
//   - Side channels: checkpoint cadence, the watchdog window, the
//     deadlock window, and the cycle budget are skip horizons, so those
//     events fire at exactly the cycle the ticking kernel fires them.
//
// Only per-cycle state mutations disable skipping: operation caches (a
// lookup per probe mutates fill state) and unit-outage injection
// (issue draws the outage RNG for every slot every cycle, so the
// fault schedule itself is per-cycle). Memory delay/drop faults and port
// outages draw their RNG only at commits and active drains, which occur
// on identical cycles in both kernels, so they stay skippable.

// WithCycleSkipping enables or disables the event core's cycle skipping
// (default: enabled). Results are bit-identical either way; disabling is
// for differential tests and for measuring the ticking kernel.
func WithCycleSkipping(enabled bool) Option {
	return func(s *Sim) { s.skipDisabled = !enabled }
}

// SkippedCycles returns how many cycles the event core jumped over so
// far (0 when skipping is disabled or never engaged).
func (s *Sim) SkippedCycles() int64 { return s.skipped }

// probeBackoff is the adaptive-fallback threshold: after this many
// consecutive failed skip probes the core stops probing until memory
// activity re-arms it. Busy cells hit the ceiling within one dependence
// bubble and pay nothing afterwards; memory-bound cells re-arm on every
// issue/completion, so their long idle stretches are always probed.
const probeBackoff = 8

// rearmProbe re-enables quiet-cycle probing. Called on memory activity
// (a reference issued or completed), the only state transitions that
// open multi-cycle idle windows worth probing for.
func (s *Sim) rearmProbe() {
	s.probeMisses = 0
	s.probeOff = false
}

// skipAllowed decides once per Run whether cycle skipping is sound for
// this Sim's configuration.
func (s *Sim) skipAllowed() bool {
	return !s.skipDisabled && s.opCaches == nil && (s.inj == nil || s.inj.Model().UnitOutageRate == 0)
}

// skipBudget computes, after a quiet step at s.cycle, how many
// immediately following cycles are provably idle and safe to jump. The
// next executed cycle is s.cycle + k + 1; every horizon below bounds k
// so that the first cycle that may do (or observe) work still executes.
//
// The cheap horizons run first: on busy cells (matrix, fft, model) the
// dominant quiet-cycle pattern is a dependence bubble with a compute
// writeback due next cycle, which the wbq scan rejects in a handful of
// comparisons — the O(outstanding refs) memory scan (memProbes) only
// runs once everything cheaper has admitted a jump.
func (s *Sim) skipBudget(stallLimit, maxCycles int64) int64 {
	s.probes++
	if len(s.pendingSpawns) > 0 {
		return 0
	}
	k := int64(1<<62 - 1)
	for i := range s.wbq {
		if b := s.wbq[i].readyAt - s.cycle - 1; b < k {
			k = b
		}
	}
	if k <= 0 {
		return 0
	}
	// Deadlock window: the first check that can fire does so at cycle
	// lastProgress + stallLimit + 1; executing it there reproduces the
	// ticking kernel's DeadlockError cycle and bounds every jump.
	if b := s.lastProgress + stallLimit - s.cycle; b < k {
		k = b
	}
	// Branch-squash suppression: a suppressed window thread resumes
	// issue (and its attribution changes) at cycle squashUntil+1, so
	// that cycle must execute. Within the jump every skipped cycle stays
	// suppressed, keeping the per-cycle classification constant.
	if s.dyn != nil {
		for _, t := range s.live {
			if b := t.squashUntil - s.cycle; !t.Halted && b >= 0 && b < k {
				k = b
			}
		}
	}
	// Checkpoint boundary: land exactly on the next multiple so the
	// checkpoint stream stays byte-identical.
	if s.nextCkpt > 0 {
		if b := s.nextCkpt - s.cycle - 1; b < k {
			k = b
		}
	}
	// Cycle budget: the budget check must still observe cycle maxCycles.
	if b := maxCycles - s.cycle - 1; b < k {
		k = b
	}
	if k < 1 {
		return 0
	}
	// Memory: the O(outstanding refs) scan, only now that every cheap
	// horizon has admitted a jump.
	s.memProbes++
	if b := s.mem.SkipBudget(); b < k {
		k = b
	}
	if k < 1 {
		return 0
	}
	// Watchdog window: only a sweep that would recover something is an
	// event (a no-op sweep changes nothing and may be jumped over). The
	// parked-queue scan is deferred until the jump would actually cross
	// the window — with recent progress it never runs.
	if s.watchRetries > 0 {
		if b := s.lastProgress + s.watchWindow - s.cycle; b < k && s.mem.HasLostWakeups() {
			k = b
		}
	}
	if k < 1 {
		return 0
	}
	return k
}

// skipCycles jumps the machine over k provably idle cycles, crediting
// each skipped cycle's stall classification so the attribution
// histograms and observers' stall spans match the ticking kernel's.
func (s *Sim) skipCycles(k int64) {
	if s.attrib != nil {
		s.classifyCycles(s.cycle+1, k)
	}
	s.cycle += k
	s.mem.SkipTicks(k)
	s.skipped += k
}
