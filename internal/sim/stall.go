package sim

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"pcoup/internal/dynsched"
	"pcoup/internal/isa"
	"pcoup/internal/memsys"
)

// StallCause classifies what one non-halted thread did during one cycle:
// it either issued at least one operation, or it was held up for exactly
// one attributed reason. The attribution explains *where* cycles go —
// the paper's Section 4 argument (e.g. FFT's TPE mode losing to STS
// because sequential strands cluster idle) is visible only at this
// granularity, not in aggregate counters.
type StallCause int

const (
	// CauseIssued: the thread issued at least one operation this cycle.
	CauseIssued StallCause = iota
	// CausePresence: a source or destination register's presence bit is
	// clear and the producing result is still in a unit pipeline or
	// travelling through the memory system (plain latency wait).
	CausePresence
	// CauseFUBusy: every unissued operation of the word was ready but
	// its function unit was won by another thread this cycle (issue
	// arbitration loss; under lock-step issue, the word could not claim
	// all of its units at once).
	CauseFUBusy
	// CauseWriteback: the awaited result has left its pipeline but lost
	// register write-port or bus arbitration (interconnect contention).
	CauseWriteback
	// CauseMemBank: the awaited memory reference is queued behind a
	// busy memory bank (only when bank conflicts are modeled).
	CauseMemBank
	// CauseMemSync: blocked on memory synchronization — the awaited
	// reference is parked on a memory presence bit, or the operation is
	// fenced behind the thread's outstanding stores or synchronizing
	// loads (the acquire/release rules of DESIGN.md §6).
	CauseMemSync
	// CauseOpCache: the operation's instruction word is absent from its
	// unit's operation cache (fill in progress; extension model).
	CauseOpCache
	// CauseFork: a fork is throttled by the active-thread limit.
	CauseFork
	// CauseFault: the blocking operation was ready and resident but its
	// function unit is inside an injected degradation window (fault
	// injection only; never occurs on a healthy machine).
	CauseFault
	// CauseWindowFull: every fetched operation of a dynamic issue window
	// is in flight or hazard-blocked behind older window entries; the
	// thread is limited by window capacity / retire bandwidth (dynamic
	// scheduling only).
	CauseWindowFull
	// CauseBranchSquash: issue is suppressed while the thread re-fetches
	// after a branch misprediction (dynamic scheduling only).
	CauseBranchSquash

	// NumStallCauses is the number of distinct per-cycle classifications
	// (including CauseIssued).
	NumStallCauses = int(CauseBranchSquash) + 1
)

var stallCauseNames = [NumStallCauses]string{
	"issued", "presence", "fu-busy", "writeback", "mem-bank", "mem-sync", "opcache", "fork-throttle", "fault",
	"window-full", "branch-squash",
}

func (c StallCause) String() string {
	if c < 0 || int(c) >= NumStallCauses {
		return "unknown"
	}
	return stallCauseNames[c]
}

// StallCauses lists every classification in display order.
func StallCauses() []StallCause {
	out := make([]StallCause, NumStallCauses)
	for i := range out {
		out[i] = StallCause(i)
	}
	return out
}

// StallBreakdown is a histogram of thread-cycles by classification.
type StallBreakdown [NumStallCauses]int64

// Total sums all classifications (issued plus every stall cause).
func (b *StallBreakdown) Total() int64 {
	var n int64
	for _, v := range b {
		n += v
	}
	return n
}

// Stalled sums only the non-issued classifications.
func (b *StallBreakdown) Stalled() int64 { return b.Total() - b[CauseIssued] }

// MarshalJSON emits the histogram as a JSON array, truncated to the
// legacy nine causes while both dynamic-scheduling causes are zero, so
// paper-exact results, goldens, and checkpoints keep their exact bytes
// from before the dynamic subsystem existed.
func (b StallBreakdown) MarshalJSON() ([]byte, error) {
	n := NumStallCauses
	if b[CauseWindowFull] == 0 && b[CauseBranchSquash] == 0 {
		n = int(CauseFault) + 1
	}
	return json.Marshal(b[:n])
}

// UnmarshalJSON accepts both the legacy nine-element encoding and the
// full array; absent trailing causes are zero.
func (b *StallBreakdown) UnmarshalJSON(data []byte) error {
	var vals []int64
	if err := json.Unmarshal(data, &vals); err != nil {
		return err
	}
	if len(vals) > NumStallCauses {
		return fmt.Errorf("sim: stall breakdown has %d causes (max %d)", len(vals), NumStallCauses)
	}
	*b = StallBreakdown{}
	copy(b[:], vals)
	return nil
}

// StallStats is the run-wide stall attribution, populated on Result only
// when WithStallAttribution was given or a JSONTracer was installed.
//
// Conservation invariant: every active (non-halted) thread contributes
// exactly one classification per cycle, so Total.Total() == Slots ==
// Σ over threads of (HaltAt - SpawnAt). Equivalently: issued cycles plus
// per-cause stall cycles sum to the number of active-thread slots
// integrated over the run.
type StallStats struct {
	// Slots is the number of classified thread-cycles.
	Slots int64
	// Total aggregates every thread's breakdown.
	Total StallBreakdown
	// PerUnit attributes each non-issued thread-cycle to the global
	// unit slot of the blocking operation (CauseIssued stays zero here;
	// per-unit issue counts are Result.IssuedByUnit).
	PerUnit []StallBreakdown
	// WaitRegs counts presence-wait thread-cycles by the register being
	// waited on (CausePresence, CauseWriteback, CauseMemBank, and
	// CauseMemSync register waits), keyed by the register's name.
	WaitRegs map[string]int64
}

// stallAttrib is the live accumulator; nil on the Sim unless enabled, so
// the hot path pays only a nil check per cycle.
type stallAttrib struct {
	slots    int64
	perUnit  []StallBreakdown
	waitRegs map[string]int64
}

// WithStallAttribution enables per-cycle stall-cause accounting. Every
// cycle each non-halted thread is classified into exactly one StallCause
// and the histograms are reported on Result.Stalls and
// ThreadStats.Stalls. Off by default: classification costs a scan of
// each blocked thread's current word per cycle, which the measurement
// paths (pcbench tables, go test -bench) must not pay.
func WithStallAttribution() Option {
	return func(s *Sim) { s.ensureAttrib() }
}

func (s *Sim) ensureAttrib() {
	if s.attrib == nil {
		s.attrib = &stallAttrib{
			perUnit:  make([]StallBreakdown, len(s.units)),
			waitRegs: map[string]int64{},
		}
	}
}

// classifyCycles credits every active thread's classification to the n
// cycles from first and emits it to the observers as a stall span. step
// calls it per cycle (n = 1) after issue and before frontiers advance,
// while s.live still holds the threads that halted this cycle, so a
// thread that issued its halt this cycle counts as issued; the event
// core calls it from a quiet cycle for the k cycles it jumps, over which
// that classification holds (see eventcore.go).
func (s *Sim) classifyCycles(first, n int64) {
	for _, t := range s.live {
		if t.Halted && !(t.HaltAt == s.cycle && t.lastIssue == s.cycle) {
			continue
		}
		cause, slot := CauseIssued, -1
		var reg isa.RegRef
		var hasReg bool
		if t.lastIssue != s.cycle {
			cause, slot, reg, hasReg = s.classify(t)
		}
		s.attrib.slots += n
		t.stalls[cause] += n
		if slot >= 0 {
			s.attrib.perUnit[slot][cause] += n
		}
		if hasReg {
			s.attrib.waitRegs[reg.String()] += n
		}
		for _, o := range s.obs {
			o.Stall(t.ID, cause, first, n)
		}
	}
}

// classify attributes a non-issuing thread's cycle to one stall cause.
// It returns the cause, the global unit slot of the blocking operation
// (-1 if none), and the register being waited on (valid when hasReg).
// The scan mirrors ready()'s checks in the same order, so the attributed
// cause is the one that actually gated issue. It never mutates machine
// state, so deadlock diagnosis may call it without attribution enabled.
func (s *Sim) classify(t *Thread) (cause StallCause, slot int, reg isa.RegRef, hasReg bool) {
	if s.cycle <= t.squashUntil {
		return CauseBranchSquash, -1, reg, false
	}
	if s.winCap > 1 {
		return s.classifyWindow(t)
	}
	e := t.win.Head()
	if e == nil {
		return CausePresence, -1, reg, false
	}
	cause, slot, reg, hasReg, _ = s.classifyWord(t, e)
	return cause, slot, reg, hasReg
}

// classifyWindow attributes a non-issuing cycle of a thread whose window
// holds more than one word. If some op anywhere in the window is ready
// but lost unit arbitration, the unit (fault or busy) is charged;
// otherwise the oldest entry with unissued work is classified like an
// in-order head word. A drained window (every fetched op issued,
// retire/fetch limited) is the window-full structural stall.
func (s *Sim) classifyWindow(t *Thread) (cause StallCause, slot int, reg isa.RegRef, hasReg bool) {
	for k, e := range t.win.Entries {
		for m := e.Unissued; m != 0; m &= m - 1 {
			sl := bits.TrailingZeros64(m)
			op := e.Ops[sl]
			if s.issueOK(t, k, e, op) && s.ready(t, op) {
				if s.inj != nil && s.inj.UnitDownQuiet(sl, s.cycle) {
					return CauseFault, sl, reg, false
				}
				return CauseFUBusy, sl, reg, false
			}
		}
	}
	// Nothing ready anywhere: blame the oldest entry with unissued work,
	// classified by the same word-local rules as an in-order head. When
	// the word-local scan finds nothing blocking (every unissued op was
	// ready by its own word's rules), the ops are hazard-blocked in the
	// window — speculative non-pure ops waiting on branch resolution,
	// fork/halt waiting to reach the head, or register/memory ordering
	// against older entries — all of which resolve through the window
	// draining, so the window is charged.
	for _, e := range t.win.Entries {
		if e.Unissued == 0 {
			continue
		}
		cause, sl, wreg, hasReg, blocked := s.classifyWord(t, e)
		if blocked {
			return cause, sl, wreg, hasReg
		}
		return CauseWindowFull, sl, reg, false
	}
	// Every fetched op is in flight: the thread is limited by window
	// capacity / retire bandwidth.
	return CauseWindowFull, -1, reg, false
}

// classifyWord scans window entry e's unissued operations in slot and
// ready() order and attributes the first blocking condition: the rule
// for the head of a one-word window, the paper's in-order machine.
// blocked is false when every unissued operation was ready and resident
// — the word lost unit arbitration (the returned cause is then
// CauseFUBusy with the first unissued slot); the deeper-window
// classifier uses that distinction to charge hazard-blocked-but-ready
// words to the window.
func (s *Sim) classifyWord(t *Thread, e *dynsched.Entry) (cause StallCause, slot int, reg isa.RegRef, hasReg bool, blocked bool) {
	firstUnissued := -1
	for m := e.Unissued; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		op := e.Ops[si]
		if firstUnissued < 0 {
			firstUnissued = si
		}
		if op.Code == isa.OpHalt {
			// A halt waits only for the word's other operations; they
			// carry the real cause (or, alone and ready, it lost
			// arbitration — the fall-through below).
			continue
		}
		for _, src := range op.Srcs {
			if src.Kind == isa.OperandReg && !t.Regs.Valid(src.Reg) {
				return s.regWaitCause(t, src.Reg), si, src.Reg, true, true
			}
		}
		for _, d := range op.Dests {
			if !t.Regs.Valid(d) {
				return s.regWaitCause(t, d), si, d, true, true
			}
		}
		switch op.Code {
		case isa.OpFork:
			if s.activeCount() >= s.cfg.MaxActiveThreads() {
				return CauseFork, si, isa.RegRef{}, false, true
			}
			if t.storesOut > 0 || t.syncLoadsOut > 0 {
				return CauseMemSync, si, isa.RegRef{}, false, true
			}
		case isa.OpStore:
			if (op.Sync == isa.SyncProduce && t.storesOut > 0) || t.syncLoadsOut > 0 {
				return CauseMemSync, si, isa.RegRef{}, false, true
			}
		case isa.OpLoad:
			if t.syncLoadsOut > 0 {
				return CauseMemSync, si, isa.RegRef{}, false, true
			}
		}
		if !s.opCachePresent(si, t.SegIdx, e.IP) {
			return CauseOpCache, si, isa.RegRef{}, false, true
		}
		// Ready and resident: if the unit is inside an injected
		// degradation window, that — not arbitration — gated issue.
		// UnitDownQuiet is a read-only probe of this cycle's already
		// sampled schedule, so classification stays side-effect free.
		if s.inj != nil && s.inj.UnitDownQuiet(si, s.cycle) {
			return CauseFault, si, isa.RegRef{}, false, true
		}
	}
	// Every unissued operation was ready and resident: the unit(s) went
	// to other threads this cycle.
	return CauseFUBusy, firstUnissued, isa.RegRef{}, false, false
}

// regWaitCause refines a presence-bit wait on reg: was the producing
// result stuck in writeback arbitration, a memory bank queue, a memory
// synchronization park, or simply still in flight?
func (s *Sim) regWaitCause(t *Thread, reg isa.RegRef) StallCause {
	// A queued writeback for this register that was eligible this cycle
	// (readyAt <= cycle survives drainWritebacks only by losing port/bus
	// arbitration) is interconnect contention.
	for i := range s.wbq {
		wb := &s.wbq[i]
		if wb.thread == t.ID && wb.dst == reg {
			if wb.readyAt <= s.cycle {
				return CauseWriteback
			}
			return CausePresence // result still in a unit pipeline
		}
	}
	// No writeback queued: the producer is a memory reference.
	switch s.mem.FindWait(func(tag memsys.Tag) bool {
		if tag.Thread != t.ID {
			return false
		}
		for _, d := range s.opAt(tag).Dests {
			if d == reg {
				return true
			}
		}
		return false
	}) {
	case memsys.WaitParked:
		return CauseMemSync
	case memsys.WaitBank:
		return CauseMemBank
	}
	return CausePresence
}

// opCachePresent is the read-only counterpart of opCacheOK: it reports
// residency without starting or installing fills (classification must
// not perturb the machine).
func (s *Sim) opCachePresent(slot, seg, ip int) bool {
	if s.opCaches == nil {
		return true
	}
	return s.opCaches[slot].present(seg, ip)
}
