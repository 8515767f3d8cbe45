package compiler

import (
	"container/heap"
	"fmt"
	"slices"
	"time"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// placedOp is one operation fixed to a unit slot and a schedule cycle
// within its basic block.
type placedOp struct {
	ir           *Instr
	unit         int32 // global unit slot
	cycle        int32
	destClusters []uint8 // clusters receiving the result
	destBuf      [8]uint8
}

// unitTables are the machine's unit lists the scheduler consults. They
// depend only on the configuration and the mode, so a build computes
// them once; the preference orders, which also depend on a segment's
// rotation, are memoized per rotation.
type unitTables struct {
	cfg           *machine.Config
	single        bool
	units         []machine.UnitRef
	arith, branch []int
	// moverUnits[c] lists transfer-capable unit slots (IU/FPU) in
	// cluster c.
	moverUnits [][]int
	// latency[k] is the dependence-edge latency of an op on unit kind k:
	// the machine's minimum over units of the kind (1 if it has none).
	latency    [machine.NumUnitKinds]int
	byRotation map[[2]int][][]int
}

func newUnitTables(cfg *machine.Config, mode Mode) *unitTables {
	t := &unitTables{
		cfg: cfg, single: mode == SingleCluster, units: cfg.Units(),
		arith: cfg.ArithClusters(), branch: cfg.BranchClusters(),
		moverUnits: make([][]int, len(cfg.Clusters)),
		byRotation: map[[2]int][][]int{},
	}
	for _, u := range t.units {
		if u.Kind == machine.IU || u.Kind == machine.FPU {
			t.moverUnits[u.Cluster] = append(t.moverUnits[u.Cluster], u.Global)
		}
	}
	for k := range t.latency {
		lat, first := 1, true
		for _, u := range t.units {
			if int(u.Kind) == k && (first || u.Latency < lat) {
				lat, first = u.Latency, false
			}
		}
		t.latency[k] = lat
	}
	return t
}

// unitsByKind lists, for each op class, the unit slots a segment with
// the given rotation may use, in its cluster preference order: the
// rotated arithmetic clusters, then the rotated branch clusters (a
// simple form of static load balancing between threads). The lists of
// one rotation share one backing array.
func (t *unitTables) unitsByKind(rotation int) [][]int {
	key := [2]int{}
	if len(t.arith) > 0 {
		key[0] = rotation % len(t.arith)
	}
	if len(t.branch) > 0 {
		key[1] = rotation % len(t.branch)
	}
	if byKind, ok := t.byRotation[key]; ok {
		return byKind
	}
	// prefRank[c] is cluster c's position in the rotated order.
	var prefRank [machine.MaxClusters]int
	for i, c := range t.arith {
		prefRank[c] = (i - key[0] + len(t.arith)) % len(t.arith)
	}
	for i, c := range t.branch {
		prefRank[c] = len(t.arith) + (i-key[1]+len(t.branch))%len(t.branch)
	}
	var firstArith, firstBranch int
	if len(t.arith) > 0 {
		firstArith = t.arith[key[0]]
	}
	if len(t.branch) > 0 {
		firstBranch = t.branch[key[1]]
	}
	backing := make([]int, 0, len(t.units))
	byKind := make([][]int, machine.NumUnitKinds)
	for k := range byKind {
		start := len(backing)
		for _, u := range t.units {
			if int(u.Kind) != k {
				continue
			}
			switch {
			case u.Kind == machine.BR:
				if t.single && u.Cluster != firstBranch {
					continue
				}
			case t.single && u.Cluster != firstArith:
				continue
			}
			backing = append(backing, u.Global)
		}
		// Fallback: if single-cluster mode left a class empty (the
		// assigned cluster lacks such a unit), allow all units of the
		// class.
		if len(backing) == start {
			for _, u := range t.units {
				if int(u.Kind) == k {
					backing = append(backing, u.Global)
				}
			}
		}
		byKind[k] = backing[start:len(backing):len(backing)]
		slices.SortFunc(byKind[k], func(a, b int) int {
			ra, rb := prefRank[t.units[a].Cluster], prefRank[t.units[b].Cluster]
			if ra != rb {
				return ra - rb
			}
			return a - b
		})
	}
	t.byRotation[key] = byKind
	return byKind
}

// tables returns the build's unit tables, computing them on first use.
func (e *env) tables() *unitTables {
	if e.units == nil {
		e.units = newUnitTables(e.cfg, e.opts.Mode)
	}
	return e.units
}

// scheduler performs critical-path list scheduling of one function for
// one machine configuration and mode. One scheduler serves every
// segment of a build (start switches it to the next function), and its
// per-block scratch is reused from block to block: every per-vreg table
// is clean again when a block is done.
type scheduler struct {
	env *env
	tab *unitTables
	fn  *Fn

	units       []machine.UnitRef
	unitsByKind [][]int
	moverUnits  [][]int
	nclusters   int
	maxDests    int

	// cross[v] marks values live across basic blocks; they reside in
	// the home cluster between blocks.
	cross []bool
	home  int

	// occupancy[slot] records the cycles claimed on one unit.
	occupancy []occupancy

	// deadline, when non-zero, stops scheduling once passed.
	deadline time.Time

	moves int
	// edges and queueOps count the dependence edges built and the ready
	// queue's pushes and pops over every block scheduled.
	edges, queueOps int

	// Dependence-graph scratch of the block being scheduled.
	nodes     []node
	nodePtrs  []*node
	preds     []dep // every node's predecessors, contiguous per node
	succs     []dep // every node's successors, contiguous per node
	predStart []int32
	markTo    []int32 // markTo[m] = to+1 once an edge m->to exists
	markLat   []int32
	mem       memState

	// Per-vreg scratch, indexed by VReg and all zero (avail: -1)
	// between blocks.
	lastDef   []int32 // node index+1 of the latest definition
	useHead   []int32 // uses since it: head of a list in useBuf, index+1
	useBuf    []useLink
	firstDef  []int32 // node index+1 of the first definition
	producers []*node // in-block node defining the vreg, once placed
	// avail[v*nclusters+c] is the cycle v becomes readable in cluster
	// c, or -1 when it is not present there.
	avail        []int32
	availTouched []VReg

	ready, finals readyQueue

	// Placed operations: slab holds them for the segment; blockOps is
	// the block being scheduled, in placement order; segOps the
	// segment's scheduled so far, in word order, with wordEnd[w] the end
	// of word w in segOps.
	slab     placedSlab
	blockOps []*placedOp
	segOps   []*placedOp
	wordEnd  []int
}

type useLink struct {
	node int32
	next int32 // index+1 of the next link, 0 at the end
}

func newScheduler(e *env, fn *Fn, w *segWork) *scheduler {
	sc := &scheduler{env: e, tab: e.tables(), maxDests: e.cfg.MaxDests}
	sc.units = sc.tab.units
	sc.moverUnits = sc.tab.moverUnits
	sc.nclusters = len(e.cfg.Clusters)
	sc.occupancy = make([]occupancy, len(sc.units))
	// Size the per-block and per-vreg scratch once, for the build's
	// largest block and function.
	ops, vregs := 0, int(fn.nextVReg)
	for _, f := range e.fns {
		vregs = max(vregs, int(f.nextVReg))
		for _, b := range f.Blocks {
			ops = max(ops, len(b.Instrs))
		}
	}
	sc.reserveNodes(ops)
	sc.growVRegs(vregs)
	sc.start(fn, w)
	return sc
}

// start switches the scheduler to function fn of segment w.
func (sc *scheduler) start(fn *Fn, w *segWork) {
	sc.fn = fn
	sc.moves = 0
	sc.unitsByKind = sc.tab.unitsByKind(w.rotation)
	sc.home = -1
	if len(sc.tab.arith) > 0 {
		sc.home = sc.tab.arith[w.rotation%len(sc.tab.arith)]
	}
	// Values that live across basic blocks reside in the thread's primary
	// cluster between blocks. Concentrating them minimizes inter-cluster
	// communication ("operations are placed to minimize the amount of
	// communication between function units"); in-block temporaries are
	// still placed wherever their producer and consumers schedule.
	sc.cross = fn.crossBlockVRegs()
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	sc.slab.reset(n)
	sc.segOps = sc.segOps[:0]
	sc.wordEnd = sc.wordEnd[:0]
}

// isCross reports whether v lives across blocks (and so has a home).
func (sc *scheduler) isCross(v VReg) bool { return int(v) < len(sc.cross) && sc.cross[v] }

// growVRegs sizes the per-vreg scratch for nv vregs.
func (sc *scheduler) growVRegs(nv int) {
	if len(sc.lastDef) >= nv {
		return
	}
	grow := func(s []int32) []int32 { return append(s, make([]int32, nv-len(s))...) }
	sc.lastDef = grow(sc.lastDef)
	sc.useHead = grow(sc.useHead)
	sc.firstDef = grow(sc.firstDef)
	sc.producers = append(sc.producers, make([]*node, nv-len(sc.producers))...)
	old := len(sc.avail)
	sc.avail = append(sc.avail, make([]int32, nv*sc.nclusters-old)...)
	for i := old; i < len(sc.avail); i++ {
		sc.avail[i] = -1
	}
}

// reserveNodes sizes the dependence-graph scratch for blocks of up to n
// operations.
func (sc *scheduler) reserveNodes(n int) {
	if cap(sc.predStart) >= n+1 {
		return
	}
	sc.nodes = make([]node, n)
	sc.markTo = make([]int32, n)
	sc.markLat = make([]int32, n)
	sc.predStart = make([]int32, n+1)
}

func (sc *scheduler) cluster(slot int) int { return sc.units[slot].Cluster }
func (sc *scheduler) latency(slot int) int { return sc.units[slot].Latency }

// occupancy is a union-find over the cycles of a block on one unit:
// each claimed cycle points at a later cycle to continue the search for
// a free one from. The first cycles are a dense table (dense[c] == c
// when c is free); claims past its limit, which only long latencies
// reach, go to a map, so memory follows the number of claims, not the
// cycle span.
type occupancy struct {
	dense  []int32
	limit  int
	sparse map[int]int
}

// reset empties the table for a block whose cycles are dense below
// limit.
func (o *occupancy) reset(limit int) {
	o.dense, o.limit = o.dense[:0], limit
	clear(o.sparse)
}

// link returns the cycle claimed cycle c points at, and whether c is
// claimed.
func (o *occupancy) link(c int) (int, bool) {
	if c < len(o.dense) {
		return int(o.dense[c]), int(o.dense[c]) != c
	}
	next, ok := o.sparse[c]
	return next, ok
}

func (o *occupancy) setLink(c, next int) {
	if c < o.limit {
		for len(o.dense) <= c {
			o.dense = append(o.dense, int32(len(o.dense)))
		}
		o.dense[c] = int32(next)
		return
	}
	if o.sparse == nil {
		o.sparse = map[int]int{}
	}
	o.sparse[c] = next
}

// find returns the first unoccupied cycle >= from, compressing the path
// it walked.
func (o *occupancy) find(from int) int {
	r := from
	for next, claimed := o.link(r); claimed; next, claimed = o.link(r) {
		r = next
	}
	for c := from; c != r; {
		next, _ := o.link(c)
		o.setLink(c, r)
		c = next
	}
	return r
}

// claim finds the first unoccupied cycle >= from on a unit and claims it.
func (sc *scheduler) claim(slot, from int) int {
	o := &sc.occupancy[slot]
	c := o.find(from)
	o.setLink(c, c+1)
	return c
}

// probe returns the first unoccupied cycle >= from without claiming.
func (sc *scheduler) probe(slot, from int) int { return sc.occupancy[slot].find(from) }

// node wraps an instruction for dependence-graph scheduling. Once
// placed, its unit and cycle are those of placed.
type node struct {
	in     *Instr
	preds  []dep
	succs  []dep
	placed *placedOp
	prio   int
	index  int32
	nPred  int32
	nSucc  int32

	final   bool // terminator or halt: scheduled last
	memSucc bool // memory op ordered before a later memory op
}

type dep struct {
	n   *node
	lat int
}

// irLatency estimates the latency of a producing instruction for
// dependence edges (units of a kind may differ per cluster; the estimate
// uses the machine's minimum for the class; actual placement times are
// tracked separately).
func (sc *scheduler) irLatency(in *Instr) int {
	if in.Op == isa.OpLoad {
		return sc.env.cfg.Memory.HitLatency
	}
	return sc.tab.latency[in.Op.Unit()]
}

// addEdge orders node from before node to by lat cycles. A second edge
// between the same pair is dropped unless it is longer.
func (sc *scheduler) addEdge(from, to, lat int) {
	if from == to || (int(sc.markTo[from]) == to+1 && int(sc.markLat[from]) >= lat) {
		return
	}
	sc.markTo[from], sc.markLat[from] = int32(to+1), int32(lat)
	sc.preds = append(sc.preds, dep{n: &sc.nodes[from], lat: lat})
	sc.nodes[from].nSucc++
	sc.edges++
}

// buildDeps constructs the intra-block dependence graph: register RAW,
// WAR, and WAW edges; memory ordering (by alias, with exact
// disambiguation for constant addresses; see memDeps); and fork
// ordering. The terminator (and halt) is kept last by the ready queue,
// not by edges. It returns the nodes with critical-path priorities.
func (sc *scheduler) buildDeps(b *Block) []*node {
	sc.growVRegs(int(sc.fn.nextVReg))
	n := len(b.Instrs)
	sc.reserveNodes(n)
	sc.nodes, sc.markTo, sc.markLat = sc.nodes[:n], sc.markTo[:n], sc.markLat[:n]
	sc.predStart = sc.predStart[:n+1]
	clear(sc.markTo)
	sc.nodePtrs = sc.nodePtrs[:0]
	for i, in := range b.Instrs {
		sc.nodes[i] = node{in: in, index: int32(i), final: in.isTerminator() || in.Op == isa.OpHalt}
		sc.nodePtrs = append(sc.nodePtrs, &sc.nodes[i])
	}
	sc.preds = sc.preds[:0]
	sc.useBuf = sc.useBuf[:0]
	sc.mem.reset()

	for i, in := range b.Instrs {
		sc.predStart[i] = int32(len(sc.preds))
		for _, s := range in.Srcs {
			if s.IsConst {
				continue
			}
			if d := sc.lastDef[s.VReg]; d > 0 {
				sc.addEdge(int(d-1), i, sc.irLatency(b.Instrs[d-1]))
			}
			sc.useBuf = append(sc.useBuf, useLink{node: int32(i), next: sc.useHead[s.VReg]})
			sc.useHead[s.VReg] = int32(len(sc.useBuf))
		}
		if v := in.Dst; v != 0 {
			if d := sc.lastDef[v]; d > 0 {
				sc.addEdge(int(d-1), i, 1) // WAW
			}
			for u := sc.useHead[v]; u > 0; u = sc.useBuf[u-1].next {
				sc.addEdge(int(sc.useBuf[u-1].node), i, 1) // WAR
			}
			sc.lastDef[v] = int32(i + 1)
			sc.useHead[v] = 0
		}
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			sc.memDeps(i)
		case isa.OpFork:
			// Forks keep program (priority) order as a chain, and follow
			// the memory operations since the previous fork (children
			// observe memory); the chain orders them after earlier ones.
			m := &sc.mem
			if m.lastFork >= 0 {
				sc.addEdge(m.lastFork, i, 1)
			}
			for _, j := range m.sinceFork {
				if !sc.nodes[j].memSucc {
					sc.addEdge(int(j), i, 1)
				}
			}
			m.sinceFork = m.sinceFork[:0]
			m.lastFork = i
		}
	}
	sc.predStart[n] = int32(len(sc.preds))
	for _, in := range b.Instrs {
		for _, s := range in.Srcs {
			if !s.IsConst {
				sc.useHead[s.VReg] = 0
			}
		}
		sc.lastDef[in.Dst] = 0
	}

	// Successor lists, contiguous per node, from the predecessor lists.
	if cap(sc.succs) < len(sc.preds) {
		sc.succs = make([]dep, len(sc.preds))
	}
	sc.succs = sc.succs[:len(sc.preds)]
	pos := 0
	for i := range sc.nodes {
		nd := &sc.nodes[i]
		nd.preds = sc.preds[sc.predStart[i]:sc.predStart[i+1]:sc.predStart[i+1]]
		nd.nPred = int32(len(nd.preds))
		nd.succs = sc.succs[pos : pos : pos+int(nd.nSucc)]
		pos += int(nd.nSucc)
	}
	for i := range sc.nodes {
		for _, p := range sc.nodes[i].preds {
			p.n.succs = append(p.n.succs, dep{n: &sc.nodes[i], lat: p.lat})
		}
	}
	// Critical-path priorities (longest path to a sink).
	for i := n - 1; i >= 0; i-- {
		nd := &sc.nodes[i]
		for _, p := range nd.preds {
			if q := nd.prio + p.lat; q > p.n.prio {
				p.n.prio = q
			}
		}
	}
	return sc.nodePtrs
}

// memConflict reports whether two memory references must keep their
// program order.
func memConflict(a, b *Instr) bool {
	// Synchronizing references are barriers: a consuming load
	// (acquire) must precede later references, and a producing store
	// (release) must follow earlier ones, regardless of alias.
	if a.Sync != isa.SyncNone || b.Sync != isa.SyncNone {
		return true
	}
	if a.Alias != 0 && b.Alias != 0 && a.Alias != b.Alias {
		return false
	}
	if a.Op == isa.OpLoad && b.Op == isa.OpLoad {
		return false
	}
	if a.AddrConst && b.AddrConst && a.Offset != b.Offset {
		return false
	}
	return true
}

// memState is the memory-ordering state of the block being built.
//
// Every memory operation must follow each earlier one it conflicts with
// (memConflict), and every fork each earlier memory operation, and vice
// versa. All such edges have latency 1 and every latency is at least 1,
// so an edge is needed only where no path already orders the pair:
// the schedule, which follows from the longest-path priorities and the
// latest-predecessor bounds, is the same as with every edge. memDeps
// keeps just enough state to find those edges:
//
//   - A synchronizing reference orders against everything, so it splits
//     the block into epochs. It takes edges from the operations of the
//     epoch it closes that no later memory operation follows yet (every
//     other one reaches such an operation), and an operation of the
//     next epoch with no predecessor in that epoch takes an edge from
//     it.
//   - Within an epoch, operations on a known alias conflict only with
//     that alias and with unknown-alias ones. Per alias: the latest
//     store to a non-constant address (it follows every earlier
//     operation on the alias), the non-constant loads since it, and
//     per constant address the latest store and the loads since it.
//   - Unknown-alias operations are rare; they are checked pairwise
//     against the epoch.
//   - Forks form a chain: a memory operation follows only the latest
//     fork, unless it already follows a memory operation issued after
//     that fork; a fork follows the previous fork and those memory
//     operations since it that no later memory operation follows.
type memState struct {
	lastSync, lastFork int           // node index, -1 for none
	epoch              []int32       // non-synchronizing operations since lastSync
	xops               []int32       // those of them with an unknown alias
	sinceFork          []int32       // memory operations since lastFork
	gen                int           // epoch generation; stale alias states reset
	aliases            []*aliasState // by alias
	offPool            []offState
}

// aliasState is one alias's ordering state within an epoch.
type aliasState struct {
	gen            int
	genStore       int             // latest non-constant-address store, -1
	lastConstStore int             // latest constant-address store since genStore, -1
	genLoads       []int32         // non-constant-address loads since genStore
	offs           map[int64]int32 // constant address -> offPool index
	touched        []int64         // the keys of offs
	stored         []int64         // keys of offs with a store
}

// offState is one constant address's latest store (-1 for none) and
// the loads since it.
type offState struct {
	store int
	loads []int32
}

func (m *memState) reset() {
	m.lastSync, m.lastFork = -1, -1
	m.epoch, m.xops, m.sinceFork = m.epoch[:0], m.xops[:0], m.sinceFork[:0]
	m.offPool = m.offPool[:0]
	m.gen++
}

// alias returns the state of alias a in the current epoch.
func (m *memState) alias(a int32) *aliasState {
	if int(a) >= len(m.aliases) {
		m.aliases = append(m.aliases, make([]*aliasState, int(a)+1-len(m.aliases))...)
	}
	st := m.aliases[a]
	if st == nil {
		st = &aliasState{offs: map[int64]int32{}}
		m.aliases[a] = st
	}
	if st.gen != m.gen {
		st.gen = m.gen
		st.reset()
	}
	return st
}

func (st *aliasState) reset() {
	for _, off := range st.touched {
		delete(st.offs, off)
	}
	st.touched, st.stored, st.genLoads = st.touched[:0], st.stored[:0], st.genLoads[:0]
	st.genStore, st.lastConstStore = -1, -1
}

// off returns the state of constant address off on alias st.
func (m *memState) off(st *aliasState, off int64) *offState {
	if i, ok := st.offs[off]; ok {
		return &m.offPool[i]
	}
	i := len(m.offPool)
	if i < cap(m.offPool) {
		m.offPool = m.offPool[:i+1]
		m.offPool[i].store = -1
		m.offPool[i].loads = m.offPool[i].loads[:0]
	} else {
		m.offPool = append(m.offPool, offState{store: -1})
	}
	st.offs[off] = int32(i)
	st.touched = append(st.touched, off)
	return &m.offPool[i]
}

// memDeps adds the ordering edges of memory operation i (see memState).
func (sc *scheduler) memDeps(i int) {
	m := &sc.mem
	in := sc.nodes[i].in
	latest := -1 // latest memory operation i now follows
	follow := func(j int) {
		sc.addEdge(j, i, 1)
		sc.nodes[j].memSucc = true
		latest = max(latest, j)
	}
	switch {
	case in.Sync != isa.SyncNone:
		for _, j := range m.epoch {
			if !sc.nodes[j].memSucc {
				follow(int(j))
			}
		}
	case in.Alias == 0:
		for _, j := range m.epoch {
			if memConflict(sc.nodes[j].in, in) {
				follow(int(j))
			}
		}
	default:
		for _, j := range m.xops {
			if memConflict(sc.nodes[j].in, in) {
				follow(int(j))
			}
		}
		st := m.alias(in.Alias)
		store := in.Op == isa.OpStore
		switch {
		case in.AddrConst:
			o := m.off(st, in.Offset)
			if o.store >= 0 {
				follow(o.store)
			}
			if !store {
				o.loads = append(o.loads, int32(i))
				break
			}
			for _, j := range o.loads {
				follow(int(j))
			}
			// Earlier non-constant loads reach o.store.
			for k := len(st.genLoads) - 1; k >= 0 && int(st.genLoads[k]) > o.store; k-- {
				follow(int(st.genLoads[k]))
			}
			if o.store < 0 {
				st.stored = append(st.stored, in.Offset)
			}
			o.store, o.loads = i, o.loads[:0]
			st.lastConstStore = i
		case store:
			// Earlier non-constant loads reach lastConstStore.
			for k := len(st.genLoads) - 1; k >= 0 && int(st.genLoads[k]) > st.lastConstStore; k-- {
				follow(int(st.genLoads[k]))
			}
			for _, off := range st.touched {
				o := &m.offPool[st.offs[off]]
				if o.store >= 0 {
					follow(o.store)
				}
				for _, j := range o.loads {
					follow(int(j))
				}
			}
		default:
			for _, off := range st.stored {
				follow(m.offPool[st.offs[off]].store)
			}
			st.genLoads = append(st.genLoads, int32(i))
		}
		// Every operation on the alias since genStore follows it.
		if st.genStore >= 0 && latest < st.genStore {
			follow(st.genStore)
		}
		if store && !in.AddrConst {
			st.reset()
			st.genStore = i
		}
	}
	// Every operation of the epoch follows lastSync, and every memory
	// operation since lastFork follows it.
	if m.lastSync >= 0 && latest < m.lastSync {
		follow(m.lastSync)
	}
	if m.lastFork >= 0 && latest < m.lastFork {
		sc.addEdge(m.lastFork, i, 1)
	}
	m.sinceFork = append(m.sinceFork, int32(i))
	if in.Sync != isa.SyncNone {
		m.lastSync = i
		m.epoch, m.xops = m.epoch[:0], m.xops[:0]
		m.gen++
		return
	}
	m.epoch = append(m.epoch, int32(i))
	if in.Alias == 0 {
		m.xops = append(m.xops, int32(i))
	}
}

// readyQueue is a heap (container/heap) of ready nodes, highest
// priority first, then lowest block index.
type readyQueue []*node

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].index < q[j].index
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(*node)) }
func (q *readyQueue) Pop() any {
	n := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return n
}

// makeReady queues a node whose predecessors are all scheduled. The
// terminator (and halt) waits in a queue of its own.
func (sc *scheduler) makeReady(n *node) {
	sc.queueOps++
	if n.final {
		heap.Push(&sc.finals, n)
	} else {
		heap.Push(&sc.ready, n)
	}
}

// next picks the highest-priority ready node; the terminator (and
// halt) waits until no other node is ready.
func (sc *scheduler) next() *node {
	sc.queueOps++
	switch {
	case len(sc.ready) > 0:
		return heap.Pop(&sc.ready).(*node)
	case len(sc.finals) > 0:
		return heap.Pop(&sc.finals).(*node)
	}
	return nil
}

// deadlineStride is how many placements pass between deadline checks.
const deadlineStride = 4096

// scheduleBlock schedules one block, appending its words to the
// segment's. It returns the number of words, or a DeadlineError once
// the scheduler's deadline has passed.
func (sc *scheduler) scheduleBlock(b *Block) (int, error) {
	nodes := sc.buildDeps(b)
	// Reset per-block unit occupancy (words are per-block).
	for i := range sc.occupancy {
		sc.occupancy[i].reset(4*len(nodes) + 1024)
	}

	// Live-in cross-block values reside in their home clusters.
	for _, n := range nodes {
		if v := n.in.Dst; v != 0 && sc.firstDef[v] == 0 {
			sc.firstDef[v] = n.index + 1
		}
	}
	for _, n := range nodes {
		for _, s := range n.in.Srcs {
			if s.IsConst || !sc.isCross(s.VReg) {
				continue
			}
			if d := sc.firstDef[s.VReg]; d == 0 || d-1 >= n.index {
				sc.setAvail(s.VReg, sc.home, 0)
			}
		}
	}
	for _, n := range nodes {
		sc.firstDef[n.in.Dst] = 0
	}

	sc.blockOps = sc.blockOps[:0]
	sc.ready, sc.finals = sc.ready[:0], sc.finals[:0]
	for _, n := range nodes {
		if n.nPred == 0 {
			sc.makeReady(n)
		}
	}
	maxCycle := 0
	for done := 0; done < len(nodes); done++ {
		if done%deadlineStride == deadlineStride-1 && sc.expired() {
			sc.endBlock()
			return 0, &DeadlineError{Deadline: sc.deadline}
		}
		n := sc.next()
		if n == nil {
			panic(fmt.Sprintf("compiler: scheduler wedged in %s block %d", sc.fn.Name, b.ID))
		}
		lower := 0
		for _, p := range n.preds {
			if c := int(p.n.placed.cycle) + p.lat; c > lower {
				lower = c
			}
		}
		if n.final && maxCycle > lower {
			lower = maxCycle
		}
		po := sc.placeOp(n, lower)
		maxCycle = max(maxCycle, int(po.cycle))
		for _, s := range n.succs {
			s.n.nPred--
			if s.n.nPred == 0 {
				sc.makeReady(s.n)
			}
		}
	}

	// Assign destination clusters for values produced but never consumed
	// locally (live-out temps and unused results): default to the
	// producing unit's own cluster.
	for _, po := range sc.blockOps {
		if po.ir.Dst != 0 && len(po.destClusters) == 0 {
			po.destClusters = append(po.destClusters, uint8(sc.cluster(int(po.unit))))
		}
	}
	sc.endBlock()

	// Group by cycle, keeping placement order within a cycle, and
	// compress empty cycles into words.
	ops := sc.blockOps
	slices.SortStableFunc(ops, func(a, b *placedOp) int { return int(a.cycle - b.cycle) })
	words := 0
	for i, po := range ops {
		sc.segOps = append(sc.segOps, po)
		if i+1 == len(ops) || ops[i+1].cycle != po.cycle {
			sc.wordEnd = append(sc.wordEnd, len(sc.segOps))
			words++
		}
	}
	return words, nil
}

// endBlock returns the per-vreg scratch the block used to its clean
// state.
func (sc *scheduler) endBlock() {
	for _, v := range sc.availTouched {
		row := sc.avail[int(v)*sc.nclusters : int(v+1)*sc.nclusters]
		for c := range row {
			row[c] = -1
		}
		sc.producers[v] = nil
	}
	sc.availTouched = sc.availTouched[:0]
}

// expired reports whether the scheduler's deadline has passed.
func (sc *scheduler) expired() bool {
	return !sc.deadline.IsZero() && time.Now().After(sc.deadline)
}

// availAt returns the cycle v becomes readable in cluster c, or -1.
func (sc *scheduler) availAt(v VReg, c int) int { return int(sc.avail[int(v)*sc.nclusters+c]) }

// setAvail records that v becomes readable in cluster c at cycle (the
// earlier of two records wins).
func (sc *scheduler) setAvail(v VReg, c, cycle int) {
	p := &sc.avail[int(v)*sc.nclusters+c]
	if *p < 0 {
		sc.availTouched = append(sc.availTouched, v)
	}
	if *p < 0 || int32(cycle) < *p {
		*p = int32(cycle)
	}
}

// clearAvail forgets every location of v (it is being redefined).
func (sc *scheduler) clearAvail(v VReg) {
	row := sc.avail[int(v)*sc.nclusters : int(v+1)*sc.nclusters]
	for c := range row {
		row[c] = -1
	}
}

// transferPenalty is the scheduling cost (in cycles) charged per source
// value that must be copied into a candidate cluster: a transfer costs an
// extra operation plus latency, but a congested preferred cluster can
// justify spilling work to a neighbor.
const transferPenalty = 1

// newPlaced returns a zeroed placed operation from the segment's slab.
func (sc *scheduler) newPlaced(ir *Instr, unit, cycle int) *placedOp {
	po := sc.slab.alloc()
	*po = placedOp{ir: ir, unit: int32(unit), cycle: int32(cycle)}
	po.destClusters = po.destBuf[:0]
	return po
}

// placeOp chooses a unit and cycle for node n, inserting inter-cluster
// transfers for sources not present in the chosen cluster, and appends
// the transfers and then the operation to the block's placed ops.
// Results are written to the home cluster of cross-block values;
// destinations for in-block consumers are added retroactively (up to
// the machine's per-operation destination limit) or satisfied with
// explicit moves.
func (sc *scheduler) placeOp(n *node, lower int) *placedOp {
	kind := int(n.in.Op.Unit())
	candidates := sc.unitsByKind[kind]
	if len(candidates) == 0 {
		panic(fmt.Sprintf("compiler: no %v units available", n.in.Op.Unit()))
	}

	bestSlot, bestCycle, bestTransfers := -1, 0, 0
	for _, slot := range candidates {
		cu := sc.cluster(slot)
		t := lower
		transfers := 0
		feasible := true
		for _, s := range n.in.Srcs {
			if s.IsConst {
				continue
			}
			v := s.VReg
			if c := sc.availAt(v, cu); c >= 0 {
				if c > t {
					t = c
				}
				continue
			}
			// Value absent from cu. A producer with spare destination
			// slots costs nothing extra; otherwise estimate a one-cycle
			// transfer from its earliest location.
			if p := sc.producers[v]; p != nil && len(p.placed.destClusters) < sc.maxDests {
				if c := int(p.placed.cycle) + sc.latency(int(p.placed.unit)); c > t {
					t = c
				}
				continue
			}
			bestSrc := -1
			for c := 0; c < sc.nclusters; c++ {
				cyc := sc.availAt(v, c)
				if cyc < 0 || len(sc.moverUnits[c]) == 0 {
					continue
				}
				if bestSrc < 0 || cyc < bestSrc {
					bestSrc = cyc
				}
			}
			if bestSrc < 0 {
				feasible = false
				break
			}
			transfers++
			if c := bestSrc + 2; c > t { // mov issue + mov latency estimate
				t = c
			}
		}
		if !feasible {
			continue
		}
		cyc := sc.probe(slot, t)
		// Combined cost: a transfer costs an extra operation and about
		// two cycles of latency, but a congested preferred cluster can
		// justify spilling work to a neighbor.
		if bestSlot < 0 || cyc+transferPenalty*transfers < bestCycle+transferPenalty*bestTransfers {
			bestSlot, bestCycle, bestTransfers = slot, cyc, transfers
		}
	}
	if bestSlot < 0 {
		panic(fmt.Sprintf("compiler: cannot place op %s in %s", n.in, sc.fn.Name))
	}

	cu := sc.cluster(bestSlot)
	t := lower
	for _, s := range n.in.Srcs {
		if s.IsConst {
			continue
		}
		v := s.VReg
		if c := sc.availAt(v, cu); c >= 0 {
			if c > t {
				t = c
			}
			continue
		}
		if p := sc.producers[v]; p != nil && len(p.placed.destClusters) < sc.maxDests {
			p.placed.destClusters = append(p.placed.destClusters, uint8(cu))
			c := int(p.placed.cycle) + sc.latency(int(p.placed.unit))
			sc.setAvail(v, cu, c)
			if c > t {
				t = c
			}
			continue
		}
		// Explicit transfer.
		if readyAt := sc.insertMove(v, cu); readyAt > t {
			t = readyAt
		}
	}

	cycle := sc.claim(bestSlot, t)
	po := sc.newPlaced(n.in, bestSlot, cycle)
	sc.blockOps = append(sc.blockOps, po)
	n.placed = po

	if dst := n.in.Dst; dst != 0 {
		sc.producers[dst] = n
		sc.clearAvail(dst)
		if sc.isCross(dst) {
			po.destClusters = append(po.destClusters, uint8(sc.home))
			sc.setAvail(dst, sc.home, cycle+sc.latency(bestSlot))
		} else {
			// Lazy placement: the first consumer picks the cluster. The
			// touch keeps producers[dst] reset with the block.
			sc.availTouched = append(sc.availTouched, dst)
		}
	}
	return po
}

// insertMove schedules an explicit inter-cluster register transfer of v
// into cluster dst, appending it to the block's placed ops. It returns
// the cycle the value becomes readable in dst.
func (sc *scheduler) insertMove(v VReg, dst int) int {
	bestC, bestCyc := -1, 0
	// Clusters in a fixed order, so transfer placement (and hence the
	// generated code) is deterministic.
	for c := 0; c < sc.nclusters; c++ {
		cyc := sc.availAt(v, c)
		if cyc < 0 || len(sc.moverUnits[c]) == 0 {
			continue
		}
		if bestC < 0 || cyc < bestCyc {
			bestC, bestCyc = c, cyc
		}
	}
	if bestC < 0 {
		panic(fmt.Sprintf("compiler: value v%d has no transferable location", v))
	}
	typ := sc.fn.typeOf(v)
	// Prefer a type-matched mover, falling back to any in the cluster.
	slot := -1
	wantKind := machine.IU
	if typ == TFloat {
		wantKind = machine.FPU
	}
	bestCost := 1 << 30
	for _, s := range sc.moverUnits[bestC] {
		cost := sc.probe(s, bestCyc) * 2
		if sc.units[s].Kind != wantKind {
			cost++
		}
		if cost < bestCost {
			bestCost = cost
			slot = s
		}
	}
	cycle := sc.claim(slot, bestCyc)
	// The move opcode must match the executing unit's class (an integer
	// unit transfers float words unchanged, and vice versa).
	op := isa.OpMov
	if sc.units[slot].Kind == machine.FPU {
		op = isa.OpFMov
	}
	ir := &Instr{Op: op, Dst: v, Srcs: []Src{vsrc(v)}, Type: typ}
	po := sc.newPlaced(ir, slot, cycle)
	po.destClusters = append(po.destClusters, uint8(dst))
	sc.blockOps = append(sc.blockOps, po)
	ready := cycle + sc.latency(slot)
	sc.setAvail(v, dst, ready)
	sc.moves++
	return ready
}

// placedSlab allocates placed operations in chunks that are reused from
// segment to segment. A chunk is sized from the segment at hand: its
// operations still to place, plus an eighth for transfers.
type placedSlab struct {
	chunks [][]placedOp
	chunk  int // current chunk
	used   int // placed ops taken from it
	need   int // operations of the segment not yet placed
}

// reset starts a segment of n operations.
func (s *placedSlab) reset(n int) { s.chunk, s.used, s.need = 0, 0, n }

func (s *placedSlab) alloc() *placedOp {
	if s.chunk < len(s.chunks) && s.used == len(s.chunks[s.chunk]) {
		s.chunk, s.used = s.chunk+1, 0
	}
	if s.chunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]placedOp, max(s.need+s.need/8, 16)))
	}
	s.need--
	po := &s.chunks[s.chunk][s.used]
	s.used++
	return po
}
