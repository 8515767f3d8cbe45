// Package sim is the processor-coupling simulator: it executes compiled
// programs (isa.Program) on a configured node (machine.Config), modeling
// cycle-by-cycle arbitration of function units among multiple threads,
// register presence-bit synchronization, restricted writeback
// interconnects, and the split-transaction memory system. Simulation is
// functional (not register-transfer level) but cycle- and
// operation-accurate, as in the paper.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"pcoup/internal/dynsched"
	"pcoup/internal/faults"
	"pcoup/internal/interconnect"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/memsys"
	"pcoup/internal/regfile"
)

// writeback is one register write waiting for (or travelling toward) its
// destination register file.
type writeback struct {
	thread     int // the writing thread's ID, which is also its priority
	dst        isa.RegRef
	val        isa.Value
	srcCluster int
	readyAt    int64 // first cycle the write may claim a port
	seq        int64 // global order tiebreaker
}

// Memory requests carry a memsys.Tag whose (SegIdx, IP, Slot)
// coordinates locate the issuing op inside the program and whose Thread
// field names the issuing thread by ID, so completions re-link without
// boxing and checkpointed tags re-link on restore. opAt and s.byID
// resolve a tag back to the op and thread.

// Result summarizes one simulation run.
type Result struct {
	// Cycles is the total cycle count until all threads halted and all
	// state drained.
	Cycles int64
	// Ops is the dynamic operation count.
	Ops int64
	// IssuedByKind counts dynamic operations per function-unit class.
	IssuedByKind [machine.NumUnitKinds]int64
	// IssuedByUnit counts dynamic operations per global unit slot.
	IssuedByUnit []int64
	Threads      []ThreadStats
	Mem          memsys.Stats
	// WritebackRetries counts register writes that lost port/bus
	// arbitration at least once (interconnect contention).
	WritebackRetries int64
	// OpCacheMisses counts operation cache fills (0 unless the extension
	// model is enabled).
	OpCacheMisses int64
	// PeakRegsPerCluster is the maximum register usage of any thread, per
	// cluster.
	PeakRegsPerCluster []int
	// Interconnect summarizes writeback port/bus arbitration outcomes.
	Interconnect interconnect.Stats
	// Stalls is the per-cycle stall attribution; nil unless
	// WithStallAttribution (or a JSON tracer) was enabled.
	Stalls *StallStats
	// Faults summarizes injected faults and watchdog recoveries; nil
	// unless the machine's fault model is enabled.
	Faults *FaultStats
	// Dyn summarizes the dynamic-scheduling subsystem (branch prediction,
	// window issue, prefetching); nil unless cfg.Dynamic is enabled. The
	// explicit tag keeps the field invisible in JSON for paper-exact runs.
	Dyn *DynStats `json:"Dyn,omitempty"`
}

// FaultStats summarizes fault injection and recovery over a run.
type FaultStats struct {
	// MemDelayed/MemDropped count split-transaction reactivations
	// delayed or lost by injection.
	MemDelayed int64 `json:"mem_delayed"`
	MemDropped int64 `json:"mem_dropped"`
	// PortOutages/UnitOutages count outage windows opened.
	PortOutages int64 `json:"port_outages"`
	UnitOutages int64 `json:"unit_outages"`
	// OutageRejects counts writebacks turned away by port outages.
	OutageRejects int64 `json:"outage_rejects"`
	// WakeupRetries counts watchdog retry sweeps that recovered at
	// least one lost wakeup; WakeupsRecovered counts the addresses
	// recovered across them.
	WakeupRetries    int64 `json:"wakeup_retries"`
	WakeupsRecovered int64 `json:"wakeups_recovered"`
}

// Utilization returns the average operations per cycle executed by units
// of kind k (the utilization metric of Table 2 / Figure 5).
func (r *Result) Utilization(k machine.UnitKind) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.IssuedByKind[k]) / float64(r.Cycles)
}

// Sim is a single-node simulation instance.
type Sim struct {
	cfg   *machine.Config
	prog  *isa.Program
	units []machine.UnitRef
	mem   *memsys.Memory
	arb   *interconnect.Arbiter

	// threads lists every activated thread in spawn order, halted ones
	// included: the record finalize and deadlock report from.
	threads []*Thread
	// live lists the activated threads still running, in arbitration
	// order (spawn order, which is priority order). activateSpawns
	// appends to it and step compacts it once, after the settle phase
	// of a cycle in which a thread halted, so a thread that halts
	// mid-cycle is still visited by the rest of that cycle. Every
	// per-cycle phase walks live, so a cycle's work scales with the
	// running threads, not with every thread spawned.
	live []*Thread
	// liveHalted records that a thread halted this cycle: s.live holds
	// a halted thread only then, until compactLive drops it.
	liveHalted bool
	// byID maps thread ID -> thread; IDs are dense spawn-order indices,
	// so a slice lookup resolves memory-completion tags.
	byID    []*Thread
	nextTID int

	wbq   []writeback
	wbSeq int64
	// wbqSorted counts the leading wbq entries already in (readyAt,
	// priority, seq) order; entries pushed since the last drain follow
	// unsorted. drainWritebacks and Snapshot use it to avoid (or defer)
	// re-sorting an already-ordered queue.
	wbqSorted int

	// Per-cycle scratch buffers, reused across cycles so the steady-state
	// kernel allocates nothing.
	rotScratch  []*Thread
	cands       []candidate
	busyScratch []bool
	valScratch  []isa.Value

	// reqFree recycles memsys.Request objects: a request completes
	// exactly once (via mem.Tick), after which nothing references it, so
	// issueMemRef reuses it instead of allocating one per memory operation.
	reqFree []*memsys.Request

	// opCaches models per-unit operation caches when enabled (extension).
	opCaches []*opCache

	// winCap is every thread's issue-window depth in words: 1 (the
	// paper's in-order machine) unless cfg.Dynamic.Window sets more.
	winCap int
	// shapes caches each segment's decoded word shapes (segShapes).
	shapes []dynsched.Shapes
	// regs caches each segment's register layout (segRegs).
	regs []regLayout
	// dyn is the dynamic-scheduling subsystem (branch prediction,
	// prefetching, their counters); nil unless cfg.Dynamic is enabled.
	dyn *dynState

	cycle        int64
	lastProgress int64
	stats        Result

	// Event-core state (see eventcore.go): quiet records that the last
	// step executed no work; skipOK caches the per-Run soundness
	// decision; nextCkpt is the next checkpoint boundary (0 = none);
	// skipped counts jumped cycles for tests and benchmarks.
	skipDisabled bool
	skipOK       bool
	quiet        bool
	nextCkpt     int64
	skipped      int64
	// Adaptive probe fallback (busy cells): probeMisses counts
	// consecutive failed skip probes; once it reaches probeBackoff the
	// core stops probing (probeOff) until memory activity re-arms it.
	// probes/memProbes count probe attempts and the subset that reached
	// the O(outstanding-refs) memory scan, for tests and tuning.
	probeMisses int64
	probeOff    bool
	probes      int64
	memProbes   int64

	// pendingSpawns created this cycle become active next cycle.
	pendingSpawns []*Thread

	// obs receive the kernel's events, in installation order.
	obs []Observer

	// ctx, when set, is polled by the cycle loop so long simulations can
	// be cancelled or deadlined from outside (the service layer's per-job
	// contexts). Nil means never cancelled.
	ctx context.Context

	// maxCycles, when positive, is the default cycle budget used by Run(0)
	// in place of the built-in default.
	maxCycles int64

	// attrib accumulates per-cycle stall attribution; nil unless
	// enabled, so the default path pays only a nil check per cycle.
	attrib *stallAttrib

	// inj injects deterministic faults; nil unless the machine's fault
	// model is enabled.
	inj *faults.Injector

	// Forward-progress watchdog: when no thread progresses for
	// watchWindow cycles, lost split-transaction wakeups are retried
	// (bounded by watchRetries). On a healthy machine retries are
	// provably no-ops, so the watchdog never perturbs fault-free runs.
	watchWindow      int64
	watchRetries     int64
	wakeupRetries    int64
	wakeupsRecovered int64

	// Checkpointing: every ckptEvery cycles Run snapshots the complete
	// simulator state and hands it to ckptSink.
	ckptEvery int64
	ckptSink  func(*Checkpoint) error
}

// A word's unit slots are bits of a dynsched.Entry's Unissued mask, so
// no machine may have more units than the mask has bits.
var _ [dynsched.MaxSlots - machine.MaxTotalUnits]struct{}

// Option configures a Sim.
type Option func(*Sim)

// WithContext attaches a context to the simulation. Run polls it
// periodically (every cancelCheckMask+1 cycles, so the hot loop pays no
// per-cycle cost) and returns the context's error once it is cancelled or
// its deadline passes.
func WithContext(ctx context.Context) Option {
	return func(s *Sim) { s.ctx = ctx }
}

// WithMaxCycles sets the cycle budget Run uses when called with no
// explicit budget (Run's own positive argument still takes precedence).
// Callers that cannot reach the Run call directly — e.g. the service
// layer going through experiments.ExecuteCtx — use this to bound a cell.
func WithMaxCycles(n int64) Option {
	return func(s *Sim) { s.maxCycles = n }
}

// WithWatchdog configures the forward-progress watchdog: after window
// cycles with no progress, lost split-transaction wakeups are retried,
// up to retries total sweeps. retries == 0 disables the watchdog (lost
// wakeups then surface as DeadlockError). Defaults: window 1024,
// retries defaultWatchdogRetries.
func WithWatchdog(window int64, retries int64) Option {
	return func(s *Sim) {
		s.watchWindow = window
		s.watchRetries = retries
	}
}

// WithCheckpointEvery arranges for a full-state checkpoint every n
// cycles, delivered to sink. A sink error aborts the run.
func WithCheckpointEvery(n int64, sink func(*Checkpoint) error) Option {
	return func(s *Sim) {
		s.ckptEvery = n
		s.ckptSink = sink
	}
}

// Watchdog defaults: the window is several times the deepest plausible
// healthy latency chain (memory miss penalties reach ~100 cycles) so
// genuine waits never trigger a sweep, and the retry budget bounds the
// total recovery work on a persistently faulty machine.
const (
	defaultWatchdogWindow  = 1024
	defaultWatchdogRetries = 1 << 20
)

// cancelCheckMask controls how often Run polls the attached context: on
// cycles where cycle&cancelCheckMask == 0 (every 4096 cycles; well under
// a millisecond of host time even on slow machines).
const cancelCheckMask = 1<<12 - 1

// New prepares a simulation of prog on the machine cfg. The program must
// have been compiled for the same machine configuration.
func New(cfg *machine.Config, prog *isa.Program, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(cfg.NumUnits(), len(cfg.Clusters), cfg.MaxDests); err != nil {
		return nil, err
	}
	memWords := prog.MemWords
	if memWords < 1 {
		memWords = 1
	}
	s := &Sim{
		cfg:          cfg,
		prog:         prog,
		units:        cfg.Units(),
		mem:          memsys.New(cfg.Memory, cfg.Seed, memWords),
		arb:          interconnect.New(cfg.Interconnect, len(cfg.Clusters)),
		winCap:       max(cfg.Dynamic.Window, 1),
		shapes:       make([]dynsched.Shapes, len(prog.Segments)),
		regs:         make([]regLayout, len(prog.Segments)),
		watchWindow:  defaultWatchdogWindow,
		watchRetries: defaultWatchdogRetries,
	}
	if err := s.mem.LoadImage(prog.Data); err != nil {
		return nil, err
	}
	if err := s.checkLocality(); err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() {
		s.inj = faults.NewInjector(cfg.Faults, len(cfg.Clusters), len(s.units))
		s.mem.SetFaults(s.inj)
		if cfg.Faults.PortOutageRate > 0 {
			s.arb.SetOutage(s.inj.PortDown)
		}
	}
	for _, o := range opts {
		o(s)
	}
	s.stats.IssuedByUnit = make([]int64, len(s.units))
	s.busyScratch = make([]bool, len(s.units))
	if cfg.OpCache.Entries > 0 {
		s.opCaches = make([]*opCache, len(s.units))
		for i := range s.opCaches {
			s.opCaches[i] = newOpCache(cfg.OpCache)
		}
	}
	if err := s.initDyn(); err != nil {
		return nil, err
	}
	s.spawn(0) // main thread
	s.activateSpawns()
	return s, nil
}

// checkLocality verifies that every operation reads sources only from the
// register file of the cluster containing its unit slot (the hardware has
// no remote read paths; only writes cross clusters).
func (s *Sim) checkLocality() error {
	for _, seg := range s.prog.Segments {
		for wi := range seg.Instrs {
			for slot, op := range seg.Instrs[wi].Ops {
				if op == nil {
					continue
				}
				if slot >= len(s.units) {
					return fmt.Errorf("sim: %s word %d: slot %d beyond machine's %d units", seg.Name, wi, slot, len(s.units))
				}
				u := s.units[slot]
				if op.Code.Unit() != u.Kind {
					return fmt.Errorf("sim: %s word %d: op %s (%s) scheduled on %s unit", seg.Name, wi, op, op.Code.Unit(), u.Kind)
				}
				for _, src := range op.Srcs {
					if src.Kind == isa.OperandReg && src.Reg.Cluster != u.Cluster {
						return fmt.Errorf("sim: %s word %d: op %s on cluster %d reads remote register %s",
							seg.Name, wi, op, u.Cluster, src.Reg)
					}
				}
			}
		}
	}
	return nil
}

// Memory exposes the simulated memory for harness inspection.
func (s *Sim) Memory() *memsys.Memory { return s.mem }

// Release returns the simulation's large backing arrays (the memory
// image) to an internal pool for reuse by future Sims. The Sim and its
// Memory must not be used afterwards. Optional: sweeps that run many
// cells call it between cells to keep steady-state allocation flat.
func (s *Sim) Release() { s.mem.Recycle() }

// spawn creates a thread executing code segment segIdx.
func (s *Sim) spawn(segIdx int) *Thread {
	regs := s.segRegs(segIdx)
	t := &Thread{
		ID:       s.nextTID,
		Priority: s.nextTID,
		SegIdx:   segIdx,
		Seg:      s.prog.Segments[segIdx],
		Regs:     regfile.NewSet(regs.sizes),
		regBase:  regs.bases,
		SpawnAt:  s.cycle,
	}
	s.nextTID++
	s.byID = append(s.byID, t)
	if s.attrib != nil {
		t.stalls = new(StallBreakdown)
	}
	for _, o := range s.obs {
		o.Spawn(s.cycle, t.ID, t.Seg.Name)
	}
	sh := s.segShapes(segIdx)
	if ip := sh.EffIP(0); ip < 0 {
		t.IP = len(t.Seg.Instrs)
		t.Halted, t.HaltAt = true, s.cycle
	} else {
		t.win.Init(sh, s.winCap, uint64(segIdx)<<20)
		t.win.Fetch(ip, false)
		t.win.Extend(s.dynPred())
		t.IP = ip
	}
	s.pendingSpawns = append(s.pendingSpawns, t)
	return t
}

// regLayout is one segment's register layout: the size of each
// cluster's file and the flat index of its register 0 in a Set of those
// sizes (regfile.AppendBases).
type regLayout struct {
	sizes, bases []int
}

// segRegs returns segment i's register layout, counting the registers
// on first use: a cluster's file size is the highest index any of the
// segment's ops reads or writes in the cluster, plus one. Every thread
// running the segment gets files of these sizes. The program's declared
// register counts are not consulted: hand-written assembly may omit them
// or get them wrong.
func (s *Sim) segRegs(i int) regLayout {
	if s.regs[i].sizes != nil {
		return s.regs[i]
	}
	// One array holds the sizes and then the bases.
	k := len(s.cfg.Clusters)
	n := make([]int, k, 2*k)
	use := func(r isa.RegRef) { n[r.Cluster] = max(n[r.Cluster], r.Index+1) }
	for _, w := range s.prog.Segments[i].Instrs {
		for _, op := range w.Ops {
			if op == nil {
				continue
			}
			for _, src := range op.Srcs {
				if src.Kind == isa.OperandReg {
					use(src.Reg)
				}
			}
			for _, d := range op.Dests {
				use(d)
			}
		}
	}
	s.regs[i] = regLayout{sizes: n[:k:k], bases: regfile.AppendBases(n[k:], n)}
	return s.regs[i]
}

func (s *Sim) activateSpawns() {
	if len(s.pendingSpawns) == 0 {
		return
	}
	s.threads = append(s.threads, s.pendingSpawns...)
	for _, t := range s.pendingSpawns {
		if !t.Halted {
			s.live = append(s.live, t)
		}
	}
	s.pendingSpawns = s.pendingSpawns[:0]
}

// compactLive drops the threads that halted this cycle from s.live,
// keeping the rest in order. On a cycle in which no thread halted it
// returns at once.
func (s *Sim) compactLive() {
	if !s.liveHalted {
		return
	}
	s.liveHalted = false
	live := s.live[:0]
	for _, t := range s.live {
		if !t.Halted {
			live = append(live, t)
		}
	}
	clear(s.live[len(live):])
	s.live = live
}

// activeCount returns the number of unhalted threads (including spawns
// activating next cycle). It checks Halted because a thread halting
// mid-cycle frees its slot at once, before s.live is compacted, and a
// spawn with no operation to start at is halted from the start: no
// thread is woken when activateSpawns drops it.
func (s *Sim) activeCount() int {
	n := 0
	for _, t := range s.pendingSpawns {
		if !t.Halted {
			n++
		}
	}
	for _, t := range s.live {
		if !t.Halted {
			n++
		}
	}
	return n
}

// BudgetError is returned when the cycle budget expires before the
// program completes. It is a typed error so services can report
// budget-exceeded as a distinct job outcome rather than a generic
// failure.
type BudgetError struct {
	MaxCycles int64
	Cycle     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: exceeded %d cycles without completing", e.MaxCycles)
}

// ErrDeadlock is returned when the machine makes no progress for an
// extended period while threads remain active.
type DeadlockError struct {
	Cycle   int64
	Detail  string
	Threads []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: %s", e.Cycle, e.Detail)
}

// Run executes the program until completion or until maxCycles elapse
// (0 means a large default). It returns the accumulated statistics.
func (s *Sim) Run(maxCycles int64) (*Result, error) {
	if maxCycles <= 0 {
		maxCycles = s.maxCycles
	}
	if maxCycles <= 0 {
		maxCycles = 100_000_000
	}
	// The no-progress window is clamped to half the cycle budget so that
	// a short -max run of a blocked program still yields the diagnostic
	// DeadlockError (with per-thread stall causes) instead of a generic
	// budget-exceeded failure: a program that blocks early is caught by
	// the window well before the budget expires.
	stallLimit := int64(20_000)
	if half := maxCycles / 2; half < stallLimit {
		stallLimit = half
		if stallLimit < 1 {
			stallLimit = 1
		}
	}
	s.skipOK = s.skipAllowed()
	// Cycle-granularity side channels are boundary-crossing thresholds,
	// not exact-modulo tests: the event core advances s.cycle by more
	// than 1, and a modulo test would silently miss its boundary. Under
	// the ticking kernel the thresholds fire at the identical cycles the
	// old modulo tests fired at.
	const cancelEvery = cancelCheckMask + 1
	nextCancel := (s.cycle/cancelEvery + 1) * cancelEvery
	s.nextCkpt = 0
	if s.ckptSink != nil && s.ckptEvery > 0 {
		s.nextCkpt = (s.cycle/s.ckptEvery + 1) * s.ckptEvery
	}
	for !s.finished() {
		s.step()
		if err := s.mem.Fault(); err != nil {
			return nil, fmt.Errorf("sim: cycle %d: %w", s.cycle, err)
		}
		if s.ctx != nil && s.cycle >= nextCancel {
			nextCancel = (s.cycle/cancelEvery + 1) * cancelEvery
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at cycle %d: %w", s.cycle, err)
			}
		}
		if s.nextCkpt > 0 && s.cycle >= s.nextCkpt {
			s.nextCkpt = (s.cycle/s.ckptEvery + 1) * s.ckptEvery
			ck, err := s.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint at cycle %d: %w", s.cycle, err)
			}
			if err := s.ckptSink(ck); err != nil {
				return nil, fmt.Errorf("sim: checkpoint at cycle %d: %w", s.cycle, err)
			}
		}
		// Forward-progress watchdog: a stall past the window with parked
		// references but no scheduled reactivation is the signature of an
		// injection-dropped wakeup; retry it deterministically. On a
		// healthy machine the sweep finds nothing and changes nothing.
		if s.watchRetries > 0 && s.cycle-s.lastProgress > s.watchWindow {
			if n := s.mem.RecoverLostWakeups(); n > 0 {
				s.wakeupRetries++
				s.wakeupsRecovered += int64(n)
				s.watchRetries--
			}
		}
		if s.cycle-s.lastProgress > stallLimit {
			return nil, s.deadlock()
		}
		if s.cycle >= maxCycles {
			if s.finished() {
				break
			}
			return nil, &BudgetError{MaxCycles: maxCycles, Cycle: s.cycle}
		}
		if s.quiet && s.skipOK && !s.probeOff {
			if k := s.skipBudget(stallLimit, maxCycles); k > 0 {
				s.skipCycles(k)
				s.probeMisses = 0
			} else {
				// Adaptive fallback: a busy cell's quiet cycles are
				// dependence bubbles with work due immediately, so probes
				// keep failing. After probeBackoff consecutive misses stop
				// probing; memory activity (issue or completion) re-arms,
				// since that is what opens genuinely skippable windows.
				s.probeMisses++
				if s.probeMisses >= probeBackoff {
					s.probeOff = true
				}
			}
		}
	}
	s.finalize()
	res := s.stats
	return &res, nil
}

// finished reports whether all threads halted and all machine state
// drained.
func (s *Sim) finished() bool {
	if len(s.pendingSpawns) > 0 || len(s.wbq) > 0 || !s.mem.Quiescent() {
		return false
	}
	for _, t := range s.live {
		if !t.Halted {
			return false
		}
	}
	return true
}

func (s *Sim) deadlock() error {
	var lines []string
	var causes []string
	for _, t := range s.threads {
		if t.Halted {
			continue
		}
		cause, _, reg, hasReg := s.classify(t)
		stall := cause.String()
		if hasReg {
			stall += fmt.Sprintf(" on %s", reg)
		}
		causes = append(causes, fmt.Sprintf("t%d=%s", t.ID, stall))
		desc := fmt.Sprintf("thread %d (%s) pc=%d [stall: %s]", t.ID, t.Seg.Name, t.IP, stall)
		// Name the blocking memory word, if the thread is waiting on one.
		if state, addr := s.mem.FindWaitAddr(func(tag memsys.Tag) bool {
			return tag.Thread == t.ID
		}); state == memsys.WaitParked {
			desc += fmt.Sprintf(" [waiting addr %d]", addr)
		}
		if e := t.win.Head(); e != nil {
			for m := e.Unissued; m != 0; m &= m - 1 {
				op := e.Ops[bits.TrailingZeros64(m)]
				desc += fmt.Sprintf("; waiting op %s", op)
				for _, src := range op.Srcs {
					if src.Kind == isa.OperandReg && !t.Regs.Valid(src.Reg) {
						desc += fmt.Sprintf(" [src %s invalid]", src.Reg)
					}
				}
				for _, d := range op.Dests {
					if !t.Regs.Valid(d) {
						desc += fmt.Sprintf(" [dst %s pending]", d)
					}
				}
			}
		}
		lines = append(lines, desc)
	}
	detail := fmt.Sprintf("%d parked memory refs, %d queued writebacks; %d active threads; stalls: %s",
		s.mem.ParkedCount(), len(s.wbq), s.activeCount(), strings.Join(causes, ", "))
	return &DeadlockError{Cycle: s.cycle, Detail: detail, Threads: lines}
}

// step advances the machine by one cycle. It records in s.quiet whether
// the cycle did any work at all (memory completion, writeback
// arbitration, issue); after a quiet cycle the machine state is frozen
// and the event core may jump to the next interesting cycle.
func (s *Sim) step() {
	s.cycle++
	s.activateSpawns()
	busy := false

	// 1. Memory completions become writeback candidates this cycle.
	for _, c := range s.mem.Tick() {
		busy = true
		s.rearmProbe()
		tag := c.Req.Tag
		th := s.byID[tag.Thread]
		th.stalled = false
		if c.Req.IsStore {
			th.storesOut--
		} else {
			if c.Req.Sync != isa.SyncNone {
				th.syncLoadsOut--
			}
			for _, d := range s.opAt(tag).Dests {
				s.pushWriteback(th, d, c.Value, tag.SrcCluster, s.cycle)
			}
		}
		s.reqFree = append(s.reqFree, c.Req)
		s.progress()
	}

	// 2. Writeback: completed results contend for register write ports.
	if s.drainWritebacks() {
		busy = true
	}

	// 3. Issue: per-unit arbitration among ready operations of all
	// active threads' windows.
	opsBefore := s.stats.Ops
	s.issue()
	if s.stats.Ops != opsBefore {
		busy = true
	}

	// 4. Stall attribution: classify what every active thread did (or
	// why it could not issue) this cycle, before frontiers move.
	if s.attrib != nil {
		s.classifyCycles(s.cycle, 1)
	}

	// 5. Advance instruction frontiers: each window retires a fully
	// issued head and extends its fetch path; frontier reports any
	// structural change so the cycle is marked busy (the event core must
	// never skip a retire or fetch).
	for _, t := range s.live {
		// A one-word window changes only once its word has fully issued.
		if !t.Halted && (s.winCap > 1 || t.win.HeadDone()) && s.frontier(t) {
			busy = true
		}
	}
	s.quiet = !busy

	// 6. Settle the per-thread ready caches: a thread that did not issue
	// and has no ready unissued operation is marked stalled and drops
	// out of issue arbitration until an event clears the flag (see
	// Thread.stalled). Threads that issued (or just advanced — a retire
	// only follows the final issue of a word) stay hot, and so does a
	// squash-suppressed thread: no later event marks the end of
	// suppression, so it must keep getting scanned.
	for _, t := range s.live {
		if t.stalled || t.Halted || t.lastIssue == s.cycle {
			continue
		}
		t.stalled = s.cycle > t.squashUntil && !s.hasReady(t)
	}
	s.compactLive()
}

func (s *Sim) progress() { s.lastProgress = s.cycle }

// opAt resolves a memory tag's program coordinates back to its op.
func (s *Sim) opAt(tag memsys.Tag) *isa.Op {
	return s.prog.Segments[tag.SegIdx].Instrs[tag.IP].Ops[tag.Slot]
}

// allocReq returns a recycled (or fresh) request; the caller overwrites
// every field.
func (s *Sim) allocReq() *memsys.Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return new(memsys.Request)
}

func (s *Sim) pushWriteback(t *Thread, dst isa.RegRef, v isa.Value, srcCluster int, readyAt int64) {
	s.wbSeq++
	s.wbq = append(s.wbq, writeback{
		thread: t.ID, dst: dst, val: v, srcCluster: srcCluster,
		readyAt: readyAt, seq: s.wbSeq,
	})
}

// wbLess orders writebacks by (readyAt, priority, seq), where a
// thread's priority is its ID (spawn assigns it so, and Restore rejects
// anything else). seq is globally unique, so this is a strict total
// order: every sort of a queue yields the same permutation, regardless
// of algorithm or starting order.
func wbLess(a, b *writeback) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	if a.thread != b.thread {
		return a.thread < b.thread
	}
	return a.seq < b.seq
}

// sortWbq insertion-sorts q in wbLess order. The queue is nearly sorted
// every cycle (a sorted prefix of survivors plus a few fresh pushes), so
// insertion sort beats sort.SliceStable and allocates nothing.
func sortWbq(q []writeback) {
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && wbLess(&q[j], &q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// drainWritebacks grants register-file ports in (readyAt, priority, seq)
// order; ungranted writes retry next cycle. When no queued write is ready
// this cycle (fault-delayed wakeups, long-latency results in flight),
// arbitration setup and the sort are skipped entirely; wbqSorted records
// that the queue still owes a sort, which Snapshot settles if a
// checkpoint intervenes before the next full drain. The return value
// reports whether arbitration ran at all (the event core treats both
// early-outs as idle).
func (s *Sim) drainWritebacks() bool {
	if len(s.wbq) == 0 {
		s.wbqSorted = 0
		return false
	}
	ready := false
	for i := range s.wbq {
		if s.wbq[i].readyAt <= s.cycle {
			ready = true
			break
		}
	}
	if !ready {
		s.wbqSorted = len(s.wbq)
		return false
	}
	s.arb.BeginCycle(s.cycle)
	sortWbq(s.wbq)
	// Survivors compact toward the front in place; an entry moves only
	// once an earlier one has drained.
	kept := 0
	for i := range s.wbq {
		wb := &s.wbq[i]
		if wb.readyAt <= s.cycle && s.arb.TryGrant(interconnect.Request{SrcCluster: wb.srcCluster, DstCluster: wb.dst.Cluster}) {
			t := s.byID[wb.thread]
			t.Regs.Write(wb.dst, wb.val)
			t.stalled = false
			for _, o := range s.obs {
				o.Writeback(s.cycle, wb.thread, wb.dst, wb.val)
			}
			s.progress()
			continue
		}
		if wb.readyAt <= s.cycle {
			s.stats.WritebackRetries++
		}
		if kept != i {
			s.wbq[kept] = *wb
		}
		kept++
	}
	s.wbq = s.wbq[:kept]
	s.wbqSorted = kept
	return true
}

// threadOrder returns the running threads in arbitration order for this
// cycle. Under fixed priority that is s.live itself, which is in
// priority order by construction (spawn assigns Priority = ID and
// Restore rejects anything else); round-robin rotates it by the cycle
// into scratch owned by the Sim, valid until the next call. Callers must
// not modify the result.
func (s *Sim) threadOrder() []*Thread {
	live := s.live
	if s.cfg.Arbitration != machine.RoundRobinArbitration || len(live) <= 1 {
		return live
	}
	rot := int(s.cycle) % len(live)
	s.rotScratch = append(append(s.rotScratch[:0], live[rot:]...), live[:rot]...)
	return s.rotScratch
}

// ready reports whether op may issue for thread t this cycle: every source
// register present, every destination register present (no outstanding
// write), and thread-management constraints satisfied.
func (s *Sim) ready(t *Thread, op *isa.Op) bool {
	base := t.regBase
	for i := range op.Srcs {
		src := &op.Srcs[i]
		if src.Kind == isa.OperandReg && !t.Regs.ValidAt(base[src.Reg.Cluster]+src.Reg.Index) {
			return false
		}
	}
	for _, d := range op.Dests {
		if !t.Regs.ValidAt(base[d.Cluster] + d.Index) {
			return false
		}
	}
	switch op.Code {
	case isa.OpHalt:
		// Halt retires the thread, abandoning any unissued operations of
		// its word (halts issue only from the window head); it must
		// therefore be the last operation of the word to issue. (Under
		// lock-step issue the whole word issues atomically, so nothing
		// can be abandoned.)
		if e := t.win.Head(); e != nil && !s.cfg.LockStepIssue {
			for m := e.Unissued; m != 0; m &= m - 1 {
				if e.Ops[bits.TrailingZeros64(m)].Code != isa.OpHalt {
					return false
				}
			}
		}
	case isa.OpFork:
		// Fork waits for a thread slot, for the parent's stores to
		// complete (release, so the child observes pre-fork memory), and
		// for outstanding synchronizing loads (acquire, so a join really
		// separates one wave of children from the next).
		if s.activeCount() >= s.cfg.MaxActiveThreads() || t.storesOut > 0 || t.syncLoadsOut > 0 {
			return false
		}
	case isa.OpStore:
		// Producing stores have release semantics: all of the thread's
		// ordinary stores must have completed so that a completion flag
		// never becomes visible before the data it guards.
		if op.Sync == isa.SyncProduce && t.storesOut > 0 {
			return false
		}
		// Outstanding synchronizing loads are acquire fences.
		if t.syncLoadsOut > 0 {
			return false
		}
	case isa.OpLoad:
		if t.syncLoadsOut > 0 {
			return false
		}
	}
	return true
}

// opCacheOK reports whether word ip of segment seg is present in unit
// slot's operation cache (always true when the model is off).
func (s *Sim) opCacheOK(slot, seg, ip int) bool {
	if s.opCaches == nil {
		return true
	}
	return s.opCaches[slot].lookup(seg, ip, s.cycle)
}

// halt retires t, as its halt issues or as it runs off the end of its
// code. Either way the thread's slot frees at once, so every stalled
// thread wakes: a fork blocked on MaxActiveThreads becomes ready, for
// the units arbitrated after a halt that issued, or at the next settle
// after a thread ran off its code.
func (s *Sim) halt(t *Thread) {
	t.Halted, t.HaltAt = true, s.cycle
	s.liveHalted = true
	for _, other := range s.live {
		other.stalled = false
	}
}

// finalize computes summary statistics after the run completes.
func (s *Sim) finalize() {
	s.stats.Cycles = s.cycle
	s.stats.Mem = s.mem.Stats()
	s.stats.Interconnect = s.arb.Stats()
	if s.inj != nil {
		fs := s.inj.Stats()
		s.stats.Faults = &FaultStats{
			MemDelayed: fs.MemDelayed, MemDropped: fs.MemDropped,
			PortOutages: fs.PortOutages, UnitOutages: fs.UnitOutages,
			OutageRejects:    s.stats.Interconnect.OutageRejects,
			WakeupRetries:    s.wakeupRetries,
			WakeupsRecovered: s.wakeupsRecovered,
		}
	}
	for _, c := range s.opCaches {
		s.stats.OpCacheMisses += c.misses
	}
	if s.dyn != nil {
		d := s.dyn.stats
		if s.dyn.pref != nil {
			st := s.dyn.pref.Stats()
			d.Prefetch = &st
		}
		s.stats.Dyn = &d
	}
	s.stats.PeakRegsPerCluster = make([]int, len(s.cfg.Clusters))
	for _, t := range s.threads {
		peaks := t.Regs.PeakPerCluster()
		for c, p := range peaks {
			if p > s.stats.PeakRegsPerCluster[c] {
				s.stats.PeakRegsPerCluster[c] = p
			}
		}
		s.stats.Threads = append(s.stats.Threads, ThreadStats{
			ID: t.ID, Segment: t.Seg.Name, SpawnAt: t.SpawnAt, HaltAt: t.HaltAt,
			OpsIssued: t.OpsIssued, PeakRegs: peaks, Stalls: t.stalls,
		})
	}
	if s.attrib != nil {
		st := &StallStats{
			Slots:    s.attrib.slots,
			PerUnit:  s.attrib.perUnit,
			WaitRegs: s.attrib.waitRegs,
		}
		for _, t := range s.threads {
			if t.stalls == nil {
				continue
			}
			for c, n := range t.stalls {
				st.Total[c] += n
			}
		}
		s.stats.Stalls = st
	}
}
