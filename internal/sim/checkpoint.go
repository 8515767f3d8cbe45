package sim

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"

	"pcoup/internal/dynsched"
	"pcoup/internal/faults"
	"pcoup/internal/interconnect"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/memsys"
	"pcoup/internal/regfile"
)

// CheckpointVersion identifies the checkpoint encoding; Restore rejects
// other versions.
const CheckpointVersion = 1

// Checkpoint is the complete simulator state at a cycle boundary. A run
// restored from a checkpoint is byte-identical (cycle counts and every
// statistic) to the uninterrupted run, provided the same machine
// configuration and program are supplied; Restore verifies both.
// Observers are not part of the state: a resumed run emits events only
// from the resume point.
type Checkpoint struct {
	Version int    `json:"version"`
	Machine string `json:"machine"` // machine.Config.Hash()
	Program string `json:"program"`

	Cycle        int64 `json:"cycle"`
	LastProgress int64 `json:"last_progress"`
	NextTID      int   `json:"next_tid"`
	WbSeq        int64 `json:"wb_seq"`

	WatchWindow      int64 `json:"watch_window"`
	WatchRetries     int64 `json:"watch_retries"`
	WakeupRetries    int64 `json:"wakeup_retries"`
	WakeupsRecovered int64 `json:"wakeups_recovered"`

	Ops              int64                       `json:"ops"`
	IssuedByKind     [machine.NumUnitKinds]int64 `json:"issued_by_kind"`
	IssuedByUnit     []int64                     `json:"issued_by_unit"`
	WritebackRetries int64                       `json:"writeback_retries"`

	Threads []threadState `json:"threads"`
	// PendingSpawns lists (by thread ID, in spawn order) threads created
	// this cycle and not yet activated.
	PendingSpawns []int `json:"pending_spawns,omitempty"`

	Writebacks []wbState `json:"writebacks,omitempty"`

	Mem          *memsys.State      `json:"mem"`
	Interconnect interconnect.Stats `json:"interconnect"`
	Faults       *faults.State      `json:"faults,omitempty"`
	OpCaches     []opCacheState     `json:"op_caches,omitempty"`
	Attrib       *attribState       `json:"attrib,omitempty"`
	// Dyn carries the dynamic-scheduling subsystem (predictor tables,
	// prefetcher, per-thread issue windows, speculation bookkeeping);
	// absent for paper-exact machines, so their checkpoints keep their
	// exact bytes from before the subsystem existed.
	Dyn *dynCheckpointState `json:"dyn,omitempty"`
}

// dynCheckpointState is the dynamic-scheduling subsystem's serializable
// state: the shared predictor and prefetcher plus each thread's window.
type dynCheckpointState struct {
	Predictor *dynsched.PredictorState  `json:"predictor,omitempty"`
	Prefetch  *dynsched.PrefetcherState `json:"prefetch,omitempty"`
	Threads   []dynThreadState          `json:"threads,omitempty"`
	Stats     DynStats                  `json:"stats"`
}

// dynThreadState is one thread's issue-window state, keyed by thread ID.
type dynThreadState struct {
	Thread      int             `json:"thread"`
	SquashUntil int64           `json:"squash_until"`
	SpecIssued  int64           `json:"spec_issued"`
	Undo        []specUndoState `json:"undo,omitempty"`
	Entries     []dynEntryState `json:"entries"`
}

// specUndoState is one recorded speculative register write.
type specUndoState struct {
	Reg   isa.RegRef `json:"reg"`
	Old   isa.Value  `json:"old"`
	WbSeq int64      `json:"wb_seq"`
}

// dynEntryState is one window entry.
type dynEntryState struct {
	IP        int    `json:"ip"`
	Issued    []bool `json:"issued"`
	Spec      bool   `json:"spec,omitempty"`
	Resolved  bool   `json:"resolved,omitempty"`
	Predicted bool   `json:"predicted,omitempty"`
	PredTaken bool   `json:"pred_taken,omitempty"`
	BrSlot    int    `json:"br_slot"`
	Barrier   bool   `json:"barrier,omitempty"`
	NextIP    int    `json:"next_ip"`
	Target    int    `json:"target"`
}

// threadState is one thread's serializable state.
type threadState struct {
	ID           int                 `json:"id"`
	Priority     int                 `json:"priority"`
	SegIdx       int                 `json:"seg_idx"`
	IP           int                 `json:"ip"`
	Issued       []bool              `json:"issued,omitempty"`
	BranchTaken  bool                `json:"branch_taken,omitempty"`
	BranchTarget int                 `json:"branch_target"`
	Halted       bool                `json:"halted,omitempty"`
	SpawnAt      int64               `json:"spawn_at"`
	HaltAt       int64               `json:"halt_at"`
	OpsIssued    int64               `json:"ops_issued"`
	LastIssue    int64               `json:"last_issue"`
	StoresOut    int                 `json:"stores_out"`
	SyncLoadsOut int                 `json:"sync_loads_out"`
	Regs         []regfile.FileState `json:"regs"`
	Stalls       *StallBreakdown     `json:"stalls,omitempty"`
}

// wbState is one queued register writeback's serializable state.
type wbState struct {
	Thread     int        `json:"thread"`
	Dst        isa.RegRef `json:"dst"`
	Val        isa.Value  `json:"val"`
	SrcCluster int        `json:"src_cluster"`
	ReadyAt    int64      `json:"ready_at"`
	Seq        int64      `json:"seq"`
}

// opCacheState is one unit's operation-cache serializable state.
type opCacheState struct {
	Tags      []int64 `json:"tags"`
	FillTag   int64   `json:"fill_tag"`
	FillReady int64   `json:"fill_ready"`
	Filling   bool    `json:"filling,omitempty"`
	Misses    int64   `json:"misses"`
}

// attribState is the stall-attribution accumulator's serializable state.
type attribState struct {
	Slots    int64            `json:"slots"`
	PerUnit  []StallBreakdown `json:"per_unit"`
	WaitRegs map[string]int64 `json:"wait_regs"`
}

// validateTag checks a restored memory tag against the loaded program:
// the thread must exist, the (segment, word, slot) coordinates must
// name a real op, and a load's destinations must be registers of the
// thread, since its completion writes them.
func (s *Sim) validateTag(ts memsys.Tag) error {
	t := s.restoredThread(ts.Thread)
	if t == nil {
		return fmt.Errorf("sim: checkpoint references unknown thread %d", ts.Thread)
	}
	if ts.SegIdx < 0 || ts.SegIdx >= len(s.prog.Segments) {
		return fmt.Errorf("sim: checkpoint tag segment %d out of range", ts.SegIdx)
	}
	seg := s.prog.Segments[ts.SegIdx]
	if ts.IP < 0 || ts.IP >= len(seg.Instrs) {
		return fmt.Errorf("sim: checkpoint tag word %d out of range in %s", ts.IP, seg.Name)
	}
	w := seg.Instrs[ts.IP]
	if ts.Slot < 0 || ts.Slot >= len(w.Ops) || w.Ops[ts.Slot] == nil {
		return fmt.Errorf("sim: checkpoint tag slot %d has no op at %s word %d", ts.Slot, seg.Name, ts.IP)
	}
	for _, d := range w.Ops[ts.Slot].Dests {
		if err := checkThreadReg(t, d); err != nil {
			return err
		}
	}
	return s.checkCluster(ts.SrcCluster)
}

// restoredThread returns the thread with the given ID, or nil.
func (s *Sim) restoredThread(id int) *Thread {
	if id < 0 || id >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// maxRestoreCycle bounds a restored clock far below int64 overflow.
const maxRestoreCycle = 1 << 60

// checkThreadReg checks a restored register reference against t's
// register files, which hold only the registers its segment names: any
// other reference is a state no run produces.
func checkThreadReg(t *Thread, r isa.RegRef) error {
	if !t.Regs.Has(r) {
		return fmt.Errorf("sim: checkpoint register %s is not one of thread %d's", r, t.ID)
	}
	return nil
}

// checkCluster checks a restored source cluster against the machine.
func (s *Sim) checkCluster(c int) error {
	if c < 0 || c >= len(s.cfg.Clusters) {
		return fmt.Errorf("sim: checkpoint source cluster %d out of range", c)
	}
	return nil
}

// snapshotThread captures t in the in-order form: the head word's IP,
// its issued bitmap, and — for a one-word window — its taken branch.
// Deeper windows carry their branch state in dynThreadState instead.
func (s *Sim) snapshotThread(t *Thread) threadState {
	ts := threadState{
		ID: t.ID, Priority: t.Priority, SegIdx: t.SegIdx, IP: t.IP,
		BranchTarget: -1,
		Halted:       t.Halted, SpawnAt: t.SpawnAt, HaltAt: t.HaltAt,
		OpsIssued: t.OpsIssued, LastIssue: t.lastIssue,
		StoresOut: t.storesOut, SyncLoadsOut: t.syncLoadsOut,
		Regs:   t.Regs.State(),
		Stalls: cloneBreakdown(t.stalls),
	}
	if e := t.win.Head(); e != nil {
		ts.Issued = issuedSlots(e)
		if e.Taken >= 0 && s.winCap == 1 {
			ts.BranchTaken = true
			ts.BranchTarget = e.Ops[e.Taken].Target
		}
	}
	return ts
}

// issuedSlots expands e's unissued mask into the checkpoint's per-slot
// issued flags (false for empty slots).
func issuedSlots(e *dynsched.Entry) []bool {
	issued := make([]bool, len(e.Ops))
	for slot, op := range e.Ops {
		issued[slot] = op != nil && e.Unissued&(1<<slot) == 0
	}
	return issued
}

// markIssued clears the unissued bits of a freshly fetched entry e for
// the slots a checkpoint records as issued. An issued empty slot is a
// state no run reaches, and is rejected.
func markIssued(e *dynsched.Entry, issued []bool) error {
	for slot, done := range issued {
		if !done {
			continue
		}
		if e.Ops[slot] == nil {
			return fmt.Errorf("sim: checkpoint marks empty slot %d of word %d issued", slot, e.IP)
		}
		e.Issue(slot)
	}
	return nil
}

func cloneBreakdown(b *StallBreakdown) *StallBreakdown {
	if b == nil {
		return nil
	}
	c := *b
	return &c
}

// Snapshot captures the simulator's complete state. Call it only at a
// cycle boundary (between Run steps); Run's WithCheckpointEvery hook
// guarantees this.
func (s *Sim) Snapshot() (*Checkpoint, error) {
	hash, err := s.cfg.Hash()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Version: CheckpointVersion,
		Machine: hash,
		Program: s.prog.Name,

		Cycle:        s.cycle,
		LastProgress: s.lastProgress,
		NextTID:      s.nextTID,
		WbSeq:        s.wbSeq,

		WatchWindow:      s.watchWindow,
		WatchRetries:     s.watchRetries,
		WakeupRetries:    s.wakeupRetries,
		WakeupsRecovered: s.wakeupsRecovered,

		Ops:              s.stats.Ops,
		IssuedByKind:     s.stats.IssuedByKind,
		IssuedByUnit:     append([]int64(nil), s.stats.IssuedByUnit...),
		WritebackRetries: s.stats.WritebackRetries,

		Interconnect: s.arb.Stats(),
	}
	// byID lists every thread in spawn order: the active ones, then
	// this cycle's pending spawns.
	for _, t := range s.byID {
		ck.Threads = append(ck.Threads, s.snapshotThread(t))
	}
	for _, t := range s.pendingSpawns {
		ck.PendingSpawns = append(ck.PendingSpawns, t.ID)
	}
	// Settle the sort drainWritebacks deferred (when it skipped a cycle
	// with no ready writeback) so the checkpoint's queue order matches a
	// kernel that sorts every drain. The physical reorder is unobservable
	// to the simulation itself: the next full drain re-sorts.
	sortWbq(s.wbq[:s.wbqSorted])
	for i := range s.wbq {
		wb := &s.wbq[i]
		ck.Writebacks = append(ck.Writebacks, wbState{
			Thread: wb.thread, Dst: wb.dst, Val: wb.val,
			SrcCluster: wb.srcCluster, ReadyAt: wb.readyAt, Seq: wb.seq,
		})
	}
	if ck.Mem, err = s.mem.Snapshot(); err != nil {
		return nil, err
	}
	if s.inj != nil {
		ck.Faults = s.inj.Snapshot()
	}
	for _, c := range s.opCaches {
		ck.OpCaches = append(ck.OpCaches, opCacheState{
			Tags:    append([]int64(nil), c.tags...),
			FillTag: c.fillTag, FillReady: c.fillReady, Filling: c.filling,
			Misses: c.misses,
		})
	}
	if s.attrib != nil {
		ck.Attrib = &attribState{
			Slots:    s.attrib.slots,
			PerUnit:  append([]StallBreakdown(nil), s.attrib.perUnit...),
			WaitRegs: maps.Clone(s.attrib.waitRegs),
		}
	}
	if s.dyn != nil {
		ds := &dynCheckpointState{Stats: s.dyn.stats}
		if s.dyn.pred != nil {
			ds.Predictor = s.dyn.pred.State()
		}
		if s.dyn.pref != nil {
			ds.Prefetch = s.dyn.pref.State()
		}
		for _, t := range s.byID {
			if s.winCap > 1 && t.win.Cap() > 0 {
				ds.Threads = append(ds.Threads, snapshotDynThread(t))
			}
		}
		ck.Dyn = ds
	}
	return ck, nil
}

func snapshotDynThread(t *Thread) dynThreadState {
	ds := dynThreadState{Thread: t.ID, SquashUntil: t.squashUntil, SpecIssued: t.specIssued}
	for _, u := range t.undo {
		ds.Undo = append(ds.Undo, specUndoState{Reg: u.reg, Old: u.old, WbSeq: u.wbSeq})
	}
	for _, e := range t.win.Entries {
		ds.Entries = append(ds.Entries, dynEntryState{
			IP: e.IP, Issued: issuedSlots(e),
			Spec: e.Spec, Resolved: e.Resolved,
			Predicted: e.Predicted, PredTaken: e.PredTaken,
			BrSlot: e.BrSlot, Barrier: e.Barrier,
			NextIP: e.NextIP, Target: e.Target,
		})
	}
	return ds
}

// Restore resets the simulator to a checkpointed state. The Sim must
// have been built (via New) from the same machine configuration and
// program the checkpoint was taken from; both are verified. Stall
// attribution is restored exactly as recorded: a checkpoint taken with
// attribution carries it, one taken without does not, regardless of the
// restored Sim's own options.
func (s *Sim) Restore(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("sim: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	hash, err := s.cfg.Hash()
	if err != nil {
		return err
	}
	if ck.Machine != hash {
		return fmt.Errorf("sim: checkpoint is for machine %.12s, this machine is %.12s", ck.Machine, hash)
	}
	if ck.Program != s.prog.Name {
		return fmt.Errorf("sim: checkpoint is for program %q, this program is %q", ck.Program, s.prog.Name)
	}
	if len(ck.IssuedByUnit) != len(s.units) {
		return fmt.Errorf("sim: checkpoint has %d units, machine has %d", len(ck.IssuedByUnit), len(s.units))
	}
	if (ck.Faults != nil) != (s.inj != nil) {
		return fmt.Errorf("sim: checkpoint and machine disagree on fault injection")
	}
	if ck.Mem == nil {
		return fmt.Errorf("sim: checkpoint has no memory state")
	}
	if ck.LastProgress < 0 || ck.LastProgress > ck.Cycle || ck.Cycle > maxRestoreCycle {
		return fmt.Errorf("sim: checkpoint cycle %d (last progress %d) out of range", ck.Cycle, ck.LastProgress)
	}
	// Thread IDs are dense spawn-order indices: one record per ID below
	// next_tid, which therefore equals the record count. Records come in
	// ID order, each thread's priority is its ID, and this cycle's
	// spawns are the newest IDs, as every run produces them; anything
	// else could not rebuild s.live in arbitration order.
	if ck.NextTID != len(ck.Threads) {
		return fmt.Errorf("sim: checkpoint next_tid %d, but %d thread records", ck.NextTID, len(ck.Threads))
	}
	for i, ts := range ck.Threads {
		if ts.ID != i || ts.Priority != ts.ID {
			return fmt.Errorf("sim: checkpoint thread record %d has ID %d, priority %d (want ID and priority %d)", i, ts.ID, ts.Priority, i)
		}
	}
	firstPending := ck.NextTID - len(ck.PendingSpawns)
	for i, id := range ck.PendingSpawns {
		if id != firstPending+i {
			return fmt.Errorf("sim: checkpoint pending spawns %v are not the newest thread IDs", ck.PendingSpawns)
		}
	}
	if len(ck.OpCaches) != len(s.opCaches) {
		return fmt.Errorf("sim: checkpoint has %d op caches, machine has %d", len(ck.OpCaches), len(s.opCaches))
	}

	// Attribution follows the checkpoint, not the restored Sim's options.
	s.attrib = nil
	if ck.Attrib != nil {
		if len(ck.Attrib.PerUnit) != len(s.units) {
			return fmt.Errorf("sim: checkpoint attribution has %d units, machine has %d", len(ck.Attrib.PerUnit), len(s.units))
		}
		s.attrib = &stallAttrib{
			slots:    ck.Attrib.Slots,
			perUnit:  append([]StallBreakdown(nil), ck.Attrib.PerUnit...),
			waitRegs: make(map[string]int64, len(ck.Attrib.WaitRegs)),
		}
		for k, v := range ck.Attrib.WaitRegs {
			s.attrib.waitRegs[k] = v
		}
	}

	s.threads = nil
	s.live = nil
	s.pendingSpawns = nil
	s.byID = make([]*Thread, ck.NextTID)
	for _, ts := range ck.Threads {
		if ts.SegIdx < 0 || ts.SegIdx >= len(s.prog.Segments) {
			return fmt.Errorf("sim: checkpoint thread %d has segment %d out of range", ts.ID, ts.SegIdx)
		}
		if (ts.Stalls != nil) != (ck.Attrib != nil) {
			return fmt.Errorf("sim: checkpoint thread %d and run disagree on stall attribution", ts.ID)
		}
		regs := s.segRegs(ts.SegIdx)
		t := &Thread{
			ID: ts.ID, Priority: ts.Priority, SegIdx: ts.SegIdx,
			Seg:     s.prog.Segments[ts.SegIdx],
			Regs:    regfile.NewSet(regs.sizes),
			regBase: regs.bases,
			IP:      ts.IP,
			Halted:  ts.Halted, SpawnAt: ts.SpawnAt, HaltAt: ts.HaltAt,
			OpsIssued: ts.OpsIssued, lastIssue: ts.LastIssue,
			storesOut: ts.StoresOut, syncLoadsOut: ts.SyncLoadsOut,
			stalls: cloneBreakdown(ts.Stalls),
		}
		if err := t.Regs.SetState(ts.Regs); err != nil {
			return fmt.Errorf("sim: thread %d: %w", ts.ID, err)
		}
		if s.winCap == 1 {
			if err := s.restoreHead(t, ts); err != nil {
				return err
			}
		}
		s.byID[t.ID] = t
		if t.ID >= firstPending {
			s.pendingSpawns = append(s.pendingSpawns, t)
			continue
		}
		s.threads = append(s.threads, t)
		if !t.Halted {
			s.live = append(s.live, t)
		}
	}

	s.wbq = nil
	s.wbqSorted = 0
	for _, ws := range ck.Writebacks {
		t := s.restoredThread(ws.Thread)
		if t == nil {
			return fmt.Errorf("sim: checkpoint writeback references unknown thread %d", ws.Thread)
		}
		if err := checkThreadReg(t, ws.Dst); err != nil {
			return err
		}
		if err := s.checkCluster(ws.SrcCluster); err != nil {
			return err
		}
		s.wbq = append(s.wbq, writeback{
			thread: t.ID, dst: ws.Dst, val: ws.Val,
			srcCluster: ws.SrcCluster, readyAt: ws.ReadyAt, seq: ws.Seq,
		})
	}

	if err := s.mem.Restore(ck.Mem); err != nil {
		return err
	}
	if err := s.mem.ForEachRequest(func(r *memsys.Request) error {
		return s.validateTag(r.Tag)
	}); err != nil {
		return err
	}
	if s.inj != nil {
		if err := s.inj.Restore(ck.Faults); err != nil {
			return err
		}
	}
	s.arb.RestoreStats(ck.Interconnect)
	for i, cs := range ck.OpCaches {
		c := s.opCaches[i]
		if len(cs.Tags) != len(c.tags) {
			return fmt.Errorf("sim: checkpoint op cache %d has %d entries, machine has %d", i, len(cs.Tags), len(c.tags))
		}
		copy(c.tags, cs.Tags)
		c.fillTag, c.fillReady, c.filling = cs.FillTag, cs.FillReady, cs.Filling
		c.misses = cs.Misses
	}

	if (ck.Dyn != nil) != (s.dyn != nil) {
		return fmt.Errorf("sim: checkpoint and machine disagree on dynamic scheduling")
	}
	if ck.Dyn != nil {
		if (ck.Dyn.Predictor != nil) != (s.dyn.pred != nil) {
			return fmt.Errorf("sim: checkpoint and machine disagree on branch prediction")
		}
		if s.dyn.pred != nil {
			if err := s.dyn.pred.Restore(ck.Dyn.Predictor); err != nil {
				return err
			}
		}
		if (ck.Dyn.Prefetch != nil) != (s.dyn.pref != nil) {
			return fmt.Errorf("sim: checkpoint and machine disagree on prefetching")
		}
		if s.dyn.pref != nil {
			if err := s.dyn.pref.Restore(ck.Dyn.Prefetch); err != nil {
				return err
			}
		}
		s.dyn.stats = ck.Dyn.Stats
		s.dyn.stats.Prefetch = nil
		for _, dts := range ck.Dyn.Threads {
			if err := s.restoreWindow(dts); err != nil {
				return err
			}
		}
	}
	s.cycle = ck.Cycle
	s.lastProgress = ck.LastProgress
	s.nextTID = ck.NextTID
	s.wbSeq = ck.WbSeq
	s.watchWindow = ck.WatchWindow
	s.watchRetries = ck.WatchRetries
	s.wakeupRetries = ck.WakeupRetries
	s.wakeupsRecovered = ck.WakeupsRecovered
	s.stats.Ops = ck.Ops
	s.stats.IssuedByKind = ck.IssuedByKind
	s.stats.IssuedByUnit = append([]int64(nil), ck.IssuedByUnit...)
	s.stats.WritebackRetries = ck.WritebackRetries
	return nil
}

// restoreHead rebuilds a one-word window from t's in-order state: the
// head word at ts.IP with its issued bitmap, and the successor its
// issued branches fixed. A thread whose IP names no word has none.
func (s *Sim) restoreHead(t *Thread, ts threadState) error {
	sh := s.segShapes(t.SegIdx)
	if ts.IP < 0 || ts.IP >= len(sh) || sh[ts.IP].Mask == 0 {
		return nil
	}
	if len(ts.Issued) != len(sh[ts.IP].Ops) {
		return fmt.Errorf("sim: checkpoint thread %d has %d issue slots, word %d has %d", t.ID, len(ts.Issued), ts.IP, len(sh[ts.IP].Ops))
	}
	t.win.Init(sh, 1, uint64(t.SegIdx)<<20)
	e := t.win.Fetch(ts.IP, false)
	if err := markIssued(e, ts.Issued); err != nil {
		return fmt.Errorf("%w (thread %d)", err, t.ID)
	}
	for slot, op := range e.Ops {
		if op == nil || !ts.Issued[slot] {
			continue
		}
		if !op.IsBranch() {
			continue
		}
		e.Resolved = true
		if ts.BranchTaken && op.Target == ts.BranchTarget {
			e.Taken, e.NextIP = slot, sh.EffIP(op.Target)
		} else if e.Taken < 0 {
			e.NextIP = sh.EffIP(ts.IP + 1)
		}
	}
	if ts.BranchTaken && e.Taken < 0 {
		return fmt.Errorf("sim: checkpoint thread %d took a branch to %d that word %d did not issue", t.ID, ts.BranchTarget, ts.IP)
	}
	return nil
}

// restoreWindow rebuilds a thread's window and speculation state from
// its checkpoint record.
func (s *Sim) restoreWindow(dts dynThreadState) error {
	t := s.restoredThread(dts.Thread)
	if t == nil {
		return fmt.Errorf("sim: checkpoint window references unknown thread %d", dts.Thread)
	}
	if len(dts.Entries) > s.winCap {
		return fmt.Errorf("sim: checkpoint thread %d window has %d entries, capacity is %d",
			dts.Thread, len(dts.Entries), s.winCap)
	}
	sh := s.segShapes(t.SegIdx)
	win := &t.win
	win.Init(sh, s.winCap, uint64(t.SegIdx)<<20)
	for _, es := range dts.Entries {
		if n := len(sh); es.IP < 0 || es.IP >= n || es.NextIP < dynsched.IPUnknown || es.NextIP >= n || es.Target < dynsched.IPEnd || es.Target >= n {
			return fmt.Errorf("sim: checkpoint thread %d window entry ip %d (next %d, target %d) out of range", dts.Thread, es.IP, es.NextIP, es.Target)
		}
		if len(es.Issued) != len(sh[es.IP].Ops) {
			return fmt.Errorf("sim: checkpoint thread %d window entry ip %d has %d issue slots, word has %d",
				dts.Thread, es.IP, len(es.Issued), len(sh[es.IP].Ops))
		}
		e := win.Fetch(es.IP, es.Spec)
		if err := markIssued(e, es.Issued); err != nil {
			return fmt.Errorf("%w (thread %d)", err, dts.Thread)
		}
		e.Resolved, e.Predicted, e.PredTaken = es.Resolved, es.Predicted, es.PredTaken
		e.BrSlot, e.Barrier, e.NextIP, e.Target = es.BrSlot, es.Barrier, es.NextIP, es.Target
		// Taken is not recorded: any issued control op whose target is
		// the resolved successor reproduces every later resolution.
		for slot, op := range e.Ops {
			if op == nil || !es.Issued[slot] {
				continue
			}
			if op.IsBranch() && es.Resolved && sh.EffIP(op.Target) == es.NextIP {
				e.Taken = slot
			}
		}
	}
	t.squashUntil, t.specIssued, t.undo = dts.SquashUntil, dts.SpecIssued, nil
	for _, u := range dts.Undo {
		if err := checkThreadReg(t, u.Reg); err != nil {
			return err
		}
		t.undo = append(t.undo, specUndo{reg: u.Reg, old: u.Old, wbSeq: u.WbSeq})
	}
	if e := win.Head(); e != nil {
		t.IP = e.IP
	}
	return nil
}

// WriteFile serializes the checkpoint as JSON to path.
func (ck *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCheckpoint reads a checkpoint written by WriteFile.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("sim: parsing checkpoint %s: %w", path, err)
	}
	return &ck, nil
}
