package sim

import (
	"fmt"
	"math/bits"

	"pcoup/internal/dynsched"
	"pcoup/internal/isa"
	"pcoup/internal/memsys"
)

// The issue path. Every thread runs on a dynsched.Window of depth
// cfg.Dynamic.Window, or 1 when that is 0: a one-word window is the
// paper's in-order processor-coupled machine, whose head entry is the
// thread's current word. Each cycle every function unit picks one ready
// operation, scanning threads in arbitration order and, within a
// thread, window entries oldest first.

// segShapes returns segment i's decoded word shapes, decoding them on
// first use; every thread running the segment shares them.
func (s *Sim) segShapes(i int) dynsched.Shapes {
	if s.shapes[i] == nil {
		s.shapes[i] = dynsched.Decode(s.prog.Segments[i])
	}
	return s.shapes[i]
}

// candidate is a thread that may issue this cycle, with the OR of its
// window entries' unissued masks: the unit slots it has operations for.
type candidate struct {
	t     *Thread
	slots uint64
}

// gatherCandidates lists, in arbitration order, the threads of order
// that may issue this cycle (not stalled, halted or squash-suppressed)
// and have an unissued operation, and returns the union of their slots.
// Masks only shrink during the issue phase, so each candidate's slots
// stay a superset of what it can still issue.
func (s *Sim) gatherCandidates(order []*Thread) uint64 {
	s.cands = s.cands[:0]
	var held uint64
	for _, t := range order {
		if t.stalled || t.Halted || s.cycle <= t.squashUntil {
			continue
		}
		var m uint64
		for _, e := range t.win.Entries {
			m |= e.Unissued
		}
		if m != 0 {
			s.cands = append(s.cands, candidate{t: t, slots: m})
			held |= m
		}
	}
	return held
}

// issue is step's issue phase. Under the lock-step ablation whole head
// words are admitted first, all or nothing, reserving their units in
// thread-arbitration order; nothing else may issue then, since any
// partial word would slip. Otherwise each unit independently takes one
// ready operation from the cycle's candidates.
func (s *Sim) issue() {
	order := s.threadOrder()
	if s.cfg.LockStepIssue {
		s.admitLockStep(order)
		return
	}
	// Degradation windows: a down unit issues nothing this cycle. Every
	// slot is probed every cycle, so the injector's per-cycle cache is
	// always populated before stall classification reads it; each unit
	// draws from its own stream, so probing them all first is the same
	// schedule as probing each as its turn comes.
	var down uint64
	if s.inj != nil {
		for slot := range s.units {
			if s.inj.UnitDown(slot, s.cycle) {
				down |= 1 << slot
			}
		}
	}
	// Only the slots some candidate holds are visited, lowest first.
	held := s.gatherCandidates(order) &^ down
	for held != 0 {
		slot := bits.TrailingZeros64(held)
		bit := uint64(1) << slot
		held &^= bit
	cands:
		for _, c := range s.cands {
			// An earlier unit's issue may have halted the thread or
			// started a squash penalty.
			t := c.t
			if c.slots&bit == 0 || t.stalled || t.Halted || s.cycle <= t.squashUntil {
				continue
			}
			// The thread's window entries, oldest first.
			for k, e := range t.win.Entries {
				if e.Unissued&bit == 0 {
					continue
				}
				op := e.Ops[slot]
				// issueOK passes every op of a non-speculative head, so
				// the in-order machine never pays for the call.
				if !(k == 0 && !e.Spec || s.issueOK(t, k, e, op)) ||
					!s.ready(t, op) || !s.opCacheOK(slot, t.SegIdx, e.IP) {
					continue
				}
				s.issueEntryOp(t, k, e, slot, op)
				if op.Code == isa.OpHalt {
					// The halt woke every stalled thread (see halt); the
					// units above this one must see them.
					held = s.gatherCandidates(order) &^ down &^ (bit<<1 - 1)
				}
				break cands // unit consumed this cycle
			}
		}
	}
}

// admitLockStep issues, in thread-arbitration order, every head word
// whose unissued operations are all ready and resident on units not yet
// taken this cycle. A per-unit scan alone would be wrong: it could admit
// a lower-priority word on an earlier unit and so block a higher-priority
// word that needs the same unit.
func (s *Sim) admitLockStep(order []*Thread) {
	busy := s.busyScratch
	for slot := range busy {
		busy[slot] = s.inj != nil && s.inj.UnitDown(slot, s.cycle)
	}
	for _, t := range order {
		e := t.win.Head()
		if t.stalled || t.Halted || e == nil {
			continue
		}
		ok := true
		for m := e.Unissued; m != 0; m &= m - 1 {
			slot := bits.TrailingZeros64(m)
			if busy[slot] || !s.ready(t, e.Ops[slot]) || !s.opCacheOK(slot, t.SegIdx, e.IP) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for m := e.Unissued; m != 0; m &= m - 1 {
			slot := bits.TrailingZeros64(m)
			busy[slot] = true
			s.issueEntryOp(t, 0, e, slot, e.Ops[slot])
		}
	}
}

// hasReady is step's settle predicate: whether any unissued op anywhere
// in t's window is ready and hazard-free. Operation-cache misses are
// deliberately ignored: a fill completes on its own schedule, so a
// fill-blocked thread must keep getting scanned.
func (s *Sim) hasReady(t *Thread) bool {
	for k, e := range t.win.Entries {
		for m := e.Unissued; m != 0; m &= m - 1 {
			op := e.Ops[bits.TrailingZeros64(m)]
			if (k == 0 && !e.Spec || s.issueOK(t, k, e, op)) && s.ready(t, op) {
				return true
			}
		}
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
func (s *Sim) issueOK(t *Thread, k int, e *dynsched.Entry, op *isa.Op) bool {
	if e.Spec && !op.Code.Pure() {
		return false
	}
	if k == 0 {
		return true
	}
	if op.Code == isa.OpFork || op.Code == isa.OpHalt {
		return false
	}
	for _, pe := range t.win.Entries[:k] {
		for m := pe.Unissued; m != 0; m &= m - 1 {
			pop := pe.Ops[bits.TrailingZeros64(m)]
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

// issueEntryOp commits the issue of op on unit slot from window entry e
// (index k): operands are read, destination presence bits cleared, and
// the operation enters its unit's pipeline, the memory system, or takes
// control effect. Branches resolve here, against the prediction if any.
func (s *Sim) issueEntryOp(t *Thread, k int, e *dynsched.Entry, slot int, op *isa.Op) {
	u := &s.units[slot]
	e.Issue(slot)
	win := k
	if k > 0 {
		s.dyn.stats.WindowIssued++
	} else if s.cfg.Dynamic.Window == 0 {
		win = -1 // observers see the paper's in-order issue
	}
	t.OpsIssued++
	t.lastIssue = s.cycle
	s.stats.Ops++
	s.stats.IssuedByKind[u.Kind]++
	s.stats.IssuedByUnit[slot]++
	s.progress()
	for _, o := range s.obs {
		o.Issue(s.cycle, slot, t.ID, win, op)
	}
	// The operand values live in scratch valid until the next issue.
	// The scratch is stored back only when it grew, which keeps a
	// pointer store (and its write barrier) off every issue.
	vals := s.valScratch[:0]
	for i := range op.Srcs {
		src := &op.Srcs[i]
		if src.Kind == isa.OperandImm {
			vals = append(vals, src.Imm)
		} else {
			vals = append(vals, t.Regs.ReadAt(t.regBase[src.Reg.Cluster]+src.Reg.Index))
		}
	}
	if cap(vals) != cap(s.valScratch) {
		s.valScratch = vals[:0]
	}
	for _, d := range op.Dests {
		t.Regs.ClearValid(d)
	}

	switch op.Code {
	case isa.OpLoad, isa.OpStore:
		s.issueMemRef(t, slot, op, vals, e.IP)
	case isa.OpJmp, isa.OpBt, isa.OpBf:
		s.resolveBranch(t, k, e, slot, op, branchTaken(op, vals))
	case isa.OpFork:
		s.spawn(op.Target)
	case isa.OpHalt:
		s.halt(t)
	default:
		// Pure compute: result known now, written back after the unit's
		// pipeline latency.
		res, err := isa.Eval(op.Code, vals)
		if err != nil {
			panic(fmt.Sprintf("sim: cycle %d thread %d: %v", s.cycle, t.ID, err))
		}
		for _, dst := range op.Dests {
			s.pushWriteback(t, dst, res, u.Cluster, s.cycle+int64(u.Latency))
			if e.Spec {
				t.undo = append(t.undo, specUndo{reg: dst, old: t.Regs.Read(dst), wbSeq: s.wbSeq})
			}
		}
		if e.Spec {
			t.specIssued++
		}
	}
}

// resolveBranch fixes the successor of entry e as its control op at slot
// issues: a taken op sets it to the target, a not-taken one to the
// fall-through unless an earlier op of the word was taken. A conditional
// branch of a windowed machine also trains the predictor and commits a
// correct speculative path or squashes a wrong one (undoing speculative
// register writes in reverse issue order) and charges the squash
// penalty.
func (s *Sim) resolveBranch(t *Thread, k int, e *dynsched.Entry, slot int, op *isa.Op, taken bool) {
	win := &t.win
	actual := win.EffIP(e.IP + 1)
	switch {
	case taken:
		actual = win.EffIP(op.Target)
		e.Taken = slot
	case e.Taken >= 0:
		actual = e.NextIP
	}
	if op.Code != isa.OpJmp && s.cfg.Dynamic.Window > 0 {
		s.dyn.stats.Branches++
		if s.dyn.pred != nil {
			s.dyn.pred.Update(win.PC(e.IP), taken)
		}
	}
	switch {
	case e.Predicted && e.NextIP != actual:
		s.dyn.stats.Mispredicts++
		s.dyn.stats.Squashes++
		s.squashSpec(t, k)
		pen := int64(s.cfg.Dynamic.EffSquashPenalty())
		if until := s.cycle + pen; until > t.squashUntil {
			t.squashUntil = until
		}
	case e.Predicted:
		// Correct (or path-converging) prediction: the speculative
		// entries are the architectural path.
		win.CommitSpec()
		t.undo = t.undo[:0]
		t.specIssued = 0
	}
	e.NextIP = actual
	e.Resolved = true
}

// branchTaken resolves a branch from its operand values.
func branchTaken(op *isa.Op, vals []isa.Value) bool {
	return op.Code == isa.OpJmp || vals[0].Truthy() == (op.Code == isa.OpBt)
}

// squashSpec undoes all speculative issue after the mispredicted branch
// at entry k and drops the wrong-path entries.
func (s *Sim) squashSpec(t *Thread, k int) {
	s.dyn.stats.SquashedOps += t.specIssued
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		s.removeWriteback(u.wbSeq)
		t.Regs.Write(u.reg, u.old)
	}
	t.undo = t.undo[:0]
	t.specIssued = 0
	t.win.SquashAfter(k)
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
// with the issuing word's coordinates and threading the prefetcher's
// timing hints on loads.
func (s *Sim) issueMemRef(t *Thread, slot int, op *isa.Op, vals []isa.Value, ip int) {
	u := &s.units[slot]
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

// frontier is step's frontier phase for one thread: retire at most one
// fully-issued head word per cycle (the in-order core's one word per
// cycle), then extend the fetch path. Any change marks the cycle busy so
// the event core never skips over a retire/extend step. On an unchanged
// window this is a pure no-op, which makes it safe (and idempotent) on
// quiet cycles.
func (s *Sim) frontier(t *Thread) bool {
	win := &t.win
	changed := false
	if win.HeadDone() {
		changed = true
		if win.RetireHead() {
			t.IP = len(t.Seg.Instrs)
			s.halt(t)
			return true
		}
	}
	if win.Extend(s.dynPred()) {
		changed = true
	}
	if changed {
		t.IP = win.Entries[0].IP
		t.stalled = false
	}
	return changed
}
