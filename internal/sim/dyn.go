package sim

import (
	"fmt"

	"pcoup/internal/dynsched"
	"pcoup/internal/isa"
	"pcoup/internal/memsys"
)

// This file plugs the optional dynamic-scheduling subsystem
// (internal/dynsched) into the cycle kernel. With cfg.Dynamic zero the
// simulator never reaches any code here beyond a nil check, so the
// paper-exact machine is byte-identical to before the subsystem
// existed.
//
// Design invariants (the event-driven skip core depends on all three):
//   - The per-thread issue window, the shared branch predictor, and the
//     prefetcher mutate only on real issue events or on cycles the
//     kernel already marks busy (retire/extend in dynAdvance marks the
//     cycle busy). On a quiet cycle everything is a pure function of
//     frozen state, so skipped cycles cannot diverge from ticked ones.
//   - Speculative entries issue only pure compute ops; their register
//     effects are undone exactly on squash (writeback removal + old
//     value restore), so a misprediction is architecturally invisible.
//   - The prefetcher is timing-only: it never touches memory words or
//     presence bits, only attaches completion-time hints to demand
//     loads, so OoO issue and prefetch preserve oracle semantics.

// DynStats summarizes the dynamic-scheduling subsystem over a run.
type DynStats struct {
	// Branches counts resolved conditional branches; Mispredicts the
	// subset whose predicted successor was wrong; Squashes the
	// mispredictions that triggered a window squash (every mispredict).
	Branches    int64 `json:"branches"`
	Mispredicts int64 `json:"mispredicts"`
	Squashes    int64 `json:"squashes"`
	// SquashedOps counts speculatively issued operations undone by
	// squashes (wrong-path work).
	SquashedOps int64 `json:"squashed_ops"`
	// WindowIssued counts operations issued from behind the head word
	// (the out-of-order benefit; head issues are the in-order baseline).
	WindowIssued int64 `json:"window_issued"`
	// Prefetch carries the stride prefetcher's coverage and pollution
	// counters; nil when prefetching is off.
	Prefetch *dynsched.PrefetchStats `json:"prefetch,omitempty"`
}

// dynState is the Sim-wide dynamic-scheduling state: one predictor and
// one prefetcher shared by all threads (they model per-node hardware),
// plus the run's counters.
type dynState struct {
	winCap int // issue-window depth in words; 0 = in-order issue
	pred   dynsched.Predictor
	pref   *dynsched.Prefetcher
	stats  DynStats
}

// dynThread is the per-thread window state.
type dynThread struct {
	win *dynsched.Window
	// squashUntil suppresses issue through this cycle after a
	// misprediction (re-fetch/re-decode charge).
	squashUntil int64
	// specIssued counts ops issued from speculative entries since the
	// last commit or squash.
	specIssued int64
	// undo records how to revert speculative register writes, in issue
	// order; applied in reverse on squash.
	undo []specUndo
}

// specUndo reverts one speculative register write: drop its queued
// writeback (or overwrite its drained value) and restore the previous
// register contents and presence bit.
type specUndo struct {
	reg   isa.RegRef
	old   isa.Value
	wbSeq int64
}

// initDyn builds the subsystem from cfg.Dynamic; called by New before
// the main thread spawns so the first window seeds correctly.
func (s *Sim) initDyn() error {
	d := s.cfg.Dynamic
	if !d.Enabled() {
		return nil
	}
	s.dyn = &dynState{winCap: d.Window}
	if d.Predictor != "" {
		p, err := dynsched.NewPredictor(d.Predictor, d.EffPredictorBits(), s.cfg.Seed)
		if err != nil {
			return err
		}
		s.dyn.pred = p
	}
	if d.PrefetchStreams > 0 {
		mm := s.cfg.Memory
		s.dyn.pref = dynsched.NewPrefetcher(dynsched.PrefetchConfig{
			Streams:    d.PrefetchStreams,
			Degree:     d.EffPrefetchDegree(),
			HitLatency: mm.HitLatency,
			MissRate:   mm.MissRate,
			PenaltyMin: mm.MissPenaltyMin,
			PenaltyMax: mm.MissPenaltyMax,
			Words:      s.mem.Size(),
			Banks:      mm.Banks,
			Seed:       s.cfg.Seed,
		})
	}
	return nil
}

// attachWindow gives a freshly spawned thread its issue window, aliasing
// the head entry's issue bitmap as the thread's in-order bitmap so the
// legacy word/classify/deadlock helpers keep working on the head.
func (s *Sim) attachWindow(t *Thread) {
	if s.dyn == nil || s.dyn.winCap == 0 || t.Halted {
		return
	}
	t.dyn = &dynThread{win: dynsched.NewWindow(t.Seg, s.dyn.winCap, uint64(t.SegIdx)<<20)}
	t.dyn.win.Reset(t.IP)
	t.dyn.win.Extend(s.dynPred())
	s.syncHead(t)
}

// dynPred returns the shared predictor (nil when prediction is off).
func (s *Sim) dynPred() dynsched.Predictor {
	if s.dyn == nil {
		return nil
	}
	return s.dyn.pred
}

// syncHead refreshes the thread's architectural view (IP, issued bitmap)
// from the window's head entry.
func (s *Sim) syncHead(t *Thread) {
	if h := t.dyn.win.Head(); h != nil {
		t.IP = h.IP
		t.issued = h.Issued
	}
}

// issueDyn is the windowed variant of issueCoupled: each unit scans
// threads in arbitration order, and within a thread scans window
// entries oldest-first for a ready, hazard-free operation.
func (s *Sim) issueDyn() {
	order := s.threadOrder()
	for slot := range s.units {
		if s.inj != nil && s.inj.UnitDown(slot, s.cycle) {
			continue
		}
		for _, ti := range order {
			t := s.threads[ti]
			if t.stalled || t.Halted || t.dyn == nil {
				continue
			}
			if s.cycle <= t.dyn.squashUntil {
				continue
			}
			if s.issueFromWindow(t, slot) {
				break // unit consumed this cycle
			}
		}
	}
}

// issueFromWindow tries to issue one op of thread t on unit slot.
func (s *Sim) issueFromWindow(t *Thread, slot int) bool {
	for k, e := range t.dyn.win.Entries {
		w := &t.Seg.Instrs[e.IP]
		if slot >= len(w.Ops) {
			continue
		}
		op := w.Ops[slot]
		if op == nil || e.Issued[slot] {
			continue
		}
		if !s.issueOK(t, k, e, slot, op) || !s.ready(t, op) {
			continue
		}
		s.issueDynOp(t, k, e, slot, op)
		return true
	}
	return false
}

// opReadsReg reports whether op reads register r.
func opReadsReg(op *isa.Op, r isa.RegRef) bool {
	for _, src := range op.Srcs {
		if src.Kind == isa.OperandReg && src.Reg == r {
			return true
		}
	}
	return false
}

// issueOK applies the window hazard rules for issuing op from entry k:
//   - speculative entries issue only pure compute (no memory, control,
//     or thread effects on a possibly wrong path);
//   - fork and halt issue only from the head (thread-management effects
//     stay in program order);
//   - against every unissued op of older entries: RAW/WAR/WAW register
//     hazards block, and memory ops keep program order among unissued
//     memory ops (issued in-flight references are covered by presence
//     bits and the memory system's same-address serialization).
func (s *Sim) issueOK(t *Thread, k int, e *dynsched.Entry, slot int, op *isa.Op) bool {
	if e.Spec && !op.Code.Pure() {
		return false
	}
	if k == 0 {
		return true
	}
	if op.Code == isa.OpFork || op.Code == isa.OpHalt {
		return false
	}
	win := t.dyn.win
	for j := 0; j < k; j++ {
		pe := win.Entries[j]
		pw := &t.Seg.Instrs[pe.IP]
		for ps, pop := range pw.Ops {
			if pop == nil || pe.Issued[ps] {
				continue
			}
			if op.IsMemory() && pop.IsMemory() {
				return false
			}
			for _, pd := range pop.Dests {
				if opReadsReg(op, pd) { // RAW
					return false
				}
			}
			for _, d := range op.Dests {
				if opReadsReg(pop, d) { // WAR
					return false
				}
				for _, pd := range pop.Dests {
					if d == pd { // WAW
						return false
					}
				}
			}
		}
	}
	return true
}

// issueDynOp commits the issue of op from window entry e (index k),
// mirroring issueOp with window-aware control flow: branches resolve
// here (against the prediction, if any) instead of recording a pending
// branch on the thread.
func (s *Sim) issueDynOp(t *Thread, k int, e *dynsched.Entry, slot int, op *isa.Op) {
	u := s.units[slot]
	d := t.dyn
	e.Issued[slot] = true
	if k > 0 {
		s.dyn.stats.WindowIssued++
	}
	vals := s.commitIssue(t, slot, k, op)

	switch op.Code {
	case isa.OpLoad, isa.OpStore:
		s.issueMemRef(t, slot, op, vals, e.IP)
	case isa.OpJmp:
		// Successor resolved statically at fetch; nothing to do.
	case isa.OpBt, isa.OpBf:
		s.resolveBranch(t, k, e, op, branchTaken(op, vals))
	case isa.OpFork:
		s.spawn(op.Target)
	case isa.OpHalt:
		s.haltIssued(t)
	default:
		res, err := isa.Eval(op.Code, vals)
		if err != nil {
			panic(fmt.Sprintf("sim: cycle %d thread %d: %v", s.cycle, t.ID, err))
		}
		for _, dst := range op.Dests {
			old := t.Regs.Read(dst)
			s.pushWriteback(t, dst, res, u.Cluster, s.cycle+int64(u.Latency))
			if e.Spec {
				d.undo = append(d.undo, specUndo{reg: dst, old: old, wbSeq: s.wbSeq})
			}
		}
		if e.Spec {
			d.specIssued++
		}
	}
}

// resolveBranch resolves a conditional branch at issue: trains the
// predictor, commits a correct speculative path, or squashes a wrong
// one (undoing speculative register writes in reverse issue order) and
// charges the squash penalty.
func (s *Sim) resolveBranch(t *Thread, k int, e *dynsched.Entry, op *isa.Op, taken bool) {
	d := t.dyn
	win := d.win
	actual := win.EffIP(e.IP + 1)
	if taken {
		actual = win.EffIP(op.Target)
	}
	s.dyn.stats.Branches++
	if s.dyn.pred != nil {
		s.dyn.pred.Update(win.PC(e.IP), taken)
	}
	switch {
	case e.Predicted && e.NextIP != actual:
		s.dyn.stats.Mispredicts++
		s.dyn.stats.Squashes++
		s.squashSpec(t, k)
		pen := int64(s.cfg.Dynamic.EffSquashPenalty())
		if until := s.cycle + pen; until > d.squashUntil {
			d.squashUntil = until
		}
	case e.Predicted:
		// Correct (or path-converging) prediction: the speculative
		// entries are the architectural path.
		win.CommitSpec()
		d.undo = d.undo[:0]
		d.specIssued = 0
	}
	e.NextIP = actual
	e.Resolved = true
}

// squashSpec undoes all speculative issue after the mispredicted branch
// at entry k and drops the wrong-path entries.
func (s *Sim) squashSpec(t *Thread, k int) {
	d := t.dyn
	s.dyn.stats.SquashedOps += d.specIssued
	for i := len(d.undo) - 1; i >= 0; i-- {
		u := d.undo[i]
		s.removeWriteback(u.wbSeq)
		t.Regs.Write(u.reg, u.old)
	}
	d.undo = d.undo[:0]
	d.specIssued = 0
	d.win.SquashAfter(k)
}

// removeWriteback drops a queued writeback by sequence number (no-op if
// it already drained; the squash then overwrites the drained value).
func (s *Sim) removeWriteback(seq int64) {
	for i := range s.wbq {
		if s.wbq[i].seq == seq {
			if i < s.wbqSorted {
				s.wbqSorted--
			}
			s.wbq = append(s.wbq[:i], s.wbq[i+1:]...)
			return
		}
	}
}

// issueMemRef issues a load or store to the memory system, tagging it
// with the issuing word's coordinates (ip is the window entry's word
// under dynamic issue, the head word otherwise) and threading the
// prefetcher's timing hints on loads.
func (s *Sim) issueMemRef(t *Thread, slot int, op *isa.Op, vals []isa.Value, ip int) {
	u := s.units[slot]
	req := s.allocReq()
	if op.Code == isa.OpStore {
		addr := op.Offset
		for _, v := range vals[1:] {
			addr += v.AsInt()
		}
		*req = memsys.Request{
			IsStore: true, Sync: op.Sync, Addr: addr, Store: vals[0],
			Tag: memsys.Tag{Thread: t.ID, SegIdx: t.SegIdx, IP: ip, Slot: slot, SrcCluster: u.Cluster},
		}
		t.storesOut++
	} else {
		addr := op.Offset
		for _, v := range vals {
			addr += v.AsInt()
		}
		*req = memsys.Request{
			Sync: op.Sync, Addr: addr,
			Tag: memsys.Tag{Thread: t.ID, SegIdx: t.SegIdx, IP: ip, Slot: slot, SrcCluster: u.Cluster},
		}
		if op.Sync != isa.SyncNone {
			t.syncLoadsOut++
		}
		if s.dyn != nil && s.dyn.pref != nil && addr >= 0 && addr < s.mem.Size() {
			now := s.mem.Now()
			if hit, ready := s.dyn.pref.Lookup(addr, now); hit {
				req.PrefHit, req.PrefReady = true, ready
			}
			// The stream key includes the thread: forked workers run the
			// same segment code, and their interleaved per-thread strides
			// would otherwise alias one PC-indexed entry and never gain
			// confidence.
			pc := uint64(t.ID)<<36 | uint64(t.SegIdx)<<28 | uint64(slot)<<20 | uint64(ip)
			s.dyn.pref.Observe(pc, addr, now)
		}
	}
	_ = s.mem.Issue(req)
	s.rearmProbe()
}

// dynAdvance is the window thread's frontier phase: retire at most one
// fully-issued head word per cycle (the commit width matches the
// in-order core's one-word-per-cycle frontier), then extend the fetch
// path. Any change marks the cycle busy so the event core never skips
// over a retire/extend step. On an unchanged window this is a pure
// no-op, which makes it safe (and idempotent) on quiet cycles.
func (s *Sim) dynAdvance(t *Thread) bool {
	d := t.dyn
	changed := false
	if d.win.HeadDone() {
		changed = true
		if d.win.RetireHead() {
			t.Halted = true
			t.HaltAt = s.cycle
			return true
		}
	}
	if d.win.Extend(s.dynPred()) {
		changed = true
	}
	if changed {
		s.syncHead(t)
		t.stalled = false
	}
	return changed
}

// anyReadyDyn reports whether any unissued op anywhere in the window is
// ready and hazard-free (the settle-phase predicate for dyn threads).
func (s *Sim) anyReadyDyn(t *Thread) bool {
	for k, e := range t.dyn.win.Entries {
		w := &t.Seg.Instrs[e.IP]
		for slot, op := range w.Ops {
			if op == nil || e.Issued[slot] {
				continue
			}
			if s.issueOK(t, k, e, slot, op) && s.ready(t, op) {
				return true
			}
		}
	}
	return false
}

// classifyDyn attributes a non-issuing cycle of a window thread:
// squash suppression first; then, if some op is ready but lost unit
// arbitration, the unit (fault or busy); otherwise the oldest entry
// with unissued work is classified like an in-order head word. A
// drained window (every fetched op issued, retire/fetch limited) is
// the window-full structural stall.
func (s *Sim) classifyDyn(t *Thread) (cause StallCause, slot int, reg isa.RegRef, hasReg bool) {
	d := t.dyn
	if s.cycle <= d.squashUntil {
		return CauseBranchSquash, -1, reg, false
	}
	for k, e := range d.win.Entries {
		w := &t.Seg.Instrs[e.IP]
		for sl, op := range w.Ops {
			if op == nil || e.Issued[sl] {
				continue
			}
			if s.issueOK(t, k, e, sl, op) && s.ready(t, op) {
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
	for _, e := range d.win.Entries {
		w := &t.Seg.Instrs[e.IP]
		pending := false
		for sl, op := range w.Ops {
			if op != nil && !e.Issued[sl] {
				pending = true
				break
			}
		}
		if !pending {
			continue
		}
		cause, sl, wreg, hasReg, blocked := s.classifyWord(t, w, e.Issued)
		if blocked {
			return cause, sl, wreg, hasReg
		}
		return CauseWindowFull, sl, reg, false
	}
	// Every fetched op is in flight: the thread is limited by window
	// capacity / retire bandwidth.
	return CauseWindowFull, -1, reg, false
}
