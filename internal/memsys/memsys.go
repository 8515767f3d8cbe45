// Package memsys implements the node's memory system: interleaved banks of
// words, each with a presence (valid) bit, the precondition/postcondition
// load and store flavors of Table 1 of the paper, split-transaction
// handling of references whose precondition is not yet satisfied, and the
// statistical hit/miss latency model used for the variable-memory-latency
// experiments (Figure 7).
package memsys

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/rng"
)

// AddressError is an addressing fault: a reference outside the node's
// memory. It aborts the simulated run (distinct from transient injected
// faults, which the machine recovers from).
type AddressError struct {
	Addr    int64 `json:"addr"`
	Size    int64 `json:"size"`
	IsStore bool  `json:"is_store"`
}

func (e *AddressError) Error() string {
	kind := "load"
	if e.IsStore {
		kind = "store"
	}
	return fmt.Sprintf("memsys: %s address %d out of range [0,%d)", kind, e.Addr, e.Size)
}

// Tag links a memory reference back to the issuing operation: the
// issuing thread's ID and the operation's (segment, word, slot) program
// coordinates, plus the cluster the reference issued from. It is carried
// by value (no boxing) and returned with the Completion. The JSON field
// names match the simulator's historical checkpoint tag encoding, so
// checkpoints taken before the tag became typed still decode.
type Tag struct {
	Thread     int `json:"t"`
	SegIdx     int `json:"seg"`
	IP         int `json:"ip"`
	Slot       int `json:"slot"`
	SrcCluster int `json:"c"`
}

// Request describes one memory reference issued by a memory unit.
type Request struct {
	IsStore bool
	Sync    isa.SyncFlavor
	Addr    int64
	Store   isa.Value // value to write (stores only)
	// Tag is caller context, returned with the Completion.
	Tag Tag

	// PrefHit marks a load whose address was covered by a stride
	// prefetch; PrefReady is the tick the prefetched data arrives. The
	// hint is timing-only: a covered load completes at hit latency once
	// the prefetch has landed, and is otherwise capped by the prefetch's
	// arrival — it can never be slower than an unhinted load.
	PrefHit   bool
	PrefReady int64

	// issuedAt records the tick the reference entered the memory system
	// (latency histogram bookkeeping).
	issuedAt int64
}

// Completion reports a finished reference.
type Completion struct {
	Req   *Request
	Value isa.Value // loaded value (loads only)
}

// NumLatencyBuckets is the size of the reference-latency histogram:
// power-of-two buckets 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65-128, >128.
const NumLatencyBuckets = 9

// LatencyBucketLabel names histogram bucket i.
func LatencyBucketLabel(i int) string {
	switch {
	case i <= 0:
		return "1"
	case i == 1:
		return "2"
	case i >= NumLatencyBuckets-1:
		return ">128"
	default:
		return fmt.Sprintf("%d-%d", 1<<uint(i-1)+1, 1<<uint(i))
	}
}

// latencyBucket maps a completed reference's total latency to a bucket.
func latencyBucket(lat int64) int {
	b := 0
	for lat > 1 && b < NumLatencyBuckets-1 {
		lat = (lat + 1) / 2
		b++
	}
	return b
}

// Stats accumulates memory system counters.
type Stats struct {
	Loads        int64
	Stores       int64
	Hits         int64
	Misses       int64
	PenaltySum   int64
	Parked       int64 // references that had to wait on a presence bit
	MaxParked    int   // peak number of simultaneously parked references
	BankConflict int64 // references delayed by bank conflicts (if modeled)
	// LatencyHist counts completed references by total observed latency
	// in cycles from issue to commit — transit plus any bank-queue and
	// presence-bit park time (see LatencyBucketLabel for bucket bounds).
	LatencyHist [NumLatencyBuckets]int64
}

// inflight is a reference travelling to/from memory.
type inflight struct {
	req       *Request
	remaining int // cycles until arrival
}

// Memory is the node memory: words, presence bits, banks, and in-flight
// reference bookkeeping. It is advanced one cycle at a time by Tick.
type Memory struct {
	model machine.MemoryModel
	rnd   *rng.Source

	words []isa.Value
	full  []bool

	pending []inflight
	// References waiting for a presence-bit transition, strict FIFO per
	// address and direction: parkedFull holds references waiting for the
	// word to become full (waitfull/consume loads, waitfull stores);
	// parkedEmpty holds producing stores waiting for it to become empty.
	// A newly arriving reference parks behind earlier waiters of its
	// direction even if its own precondition currently holds, so
	// producers and consumers at one cell are each served in issue order.
	parkedFull  map[int64][]*Request
	parkedEmpty map[int64][]*Request
	nPark       int
	// dueService lists addresses whose parked queue is re-examined this
	// tick; nextService collects addresses enabled by this tick's commits
	// (one-cycle split-transaction reactivation latency). Both are kept
	// sorted and deduplicated for deterministic service order. delayed
	// holds reactivations pushed out by injected faults, sorted by
	// (due, addr).
	dueService  []int64
	nextService []int64
	delayed     []delayedService

	// inj, when set, injects reactivation faults: a scheduled service
	// may be delayed beyond the usual one-cycle latency or dropped
	// outright (a lost wakeup, healed only by RecoverLostWakeups).
	inj *faults.Injector

	// bankQueue holds references not yet started because their bank
	// already accepted one this cycle (only when ModelBankConflicts).
	bankQueue [][]*Request
	bankBusy  []bool

	// tick counts Tick calls (the memory's local clock, used to measure
	// per-reference latency including queueing and park time).
	tick int64

	// doneScratch and arrivalsScratch are per-Memory scratch buffers
	// reused across Tick calls so the steady-state cycle path allocates
	// nothing. The slice Tick returns aliases doneScratch and is valid
	// only until the next Tick call.
	doneScratch     []Completion
	arrivalsScratch []*Request

	stats Stats
	fault error
}

// delayedService is a reactivation postponed by an injected fault.
type delayedService struct {
	Addr int64 `json:"addr"`
	Due  int64 `json:"due"` // tick at which the address is serviced
}

// backing is a recycled words/presence-bits pair held by backingPool.
type backing struct {
	words []isa.Value
	full  []bool
}

// backingPool recycles the memory image arrays — the single largest
// allocation of a simulation cell — across Memories (see Recycle).
var backingPool sync.Pool

// newBacking returns zeroed word and presence arrays of the given size,
// reusing a pooled backing when one is large enough. Reused arrays are
// cleared to exactly the state make() would produce, so pooling can
// never change simulation results.
func newBacking(size int64) ([]isa.Value, []bool) {
	if b, _ := backingPool.Get().(*backing); b != nil && int64(cap(b.words)) >= size && int64(cap(b.full)) >= size {
		words := b.words[:size]
		full := b.full[:size]
		for i := range words {
			words[i] = isa.Value{}
		}
		for i := range full {
			full[i] = false
		}
		return words, full
	}
	return make([]isa.Value, size), make([]bool, size)
}

// Recycle returns the memory's image arrays to the package pool for
// reuse by a future New. The Memory (including values previously
// returned by Peek-style inspection of it) must not be used afterwards.
func (m *Memory) Recycle() {
	if m.words == nil {
		return
	}
	backingPool.Put(&backing{words: m.words, full: m.full})
	m.words, m.full = nil, nil
}

// New creates a memory of size words using the given model and seed.
func New(model machine.MemoryModel, seed uint64, size int64) *Memory {
	if size < 1 {
		size = 1
	}
	words, full := newBacking(size)
	m := &Memory{
		model:       model,
		rnd:         rng.New(seed),
		words:       words,
		full:        full,
		parkedFull:  make(map[int64][]*Request),
		parkedEmpty: make(map[int64][]*Request),
	}
	if model.ModelBankConflicts {
		m.bankQueue = make([][]*Request, model.Banks)
		m.bankBusy = make([]bool, model.Banks)
	}
	return m
}

// LoadImage installs the program's initial data segments. Words covered by
// a segment get the segment's presence state; all other words start full
// (ordinary uninitialized data) with value zero.
func (m *Memory) LoadImage(segs []isa.DataSegment) error {
	for i := range m.full {
		m.full[i] = true
	}
	for _, seg := range segs {
		if seg.Addr < 0 || seg.Addr+int64(len(seg.Values)) > int64(len(m.words)) {
			return fmt.Errorf("memsys: data segment %q [%d,%d) outside memory of %d words",
				seg.Name, seg.Addr, seg.Addr+int64(len(seg.Values)), len(m.words))
		}
		for i, v := range seg.Values {
			m.words[seg.Addr+int64(i)] = v
			m.full[seg.Addr+int64(i)] = seg.Full
		}
	}
	return nil
}

// SetFaults installs a fault injector consulted when split-transaction
// reactivations are scheduled. Pass nil to disable injection.
func (m *Memory) SetFaults(inj *faults.Injector) { m.inj = inj }

// Size returns the memory size in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// Now returns the current memory tick (the clock prefetch hints are
// expressed in).
func (m *Memory) Now() int64 { return m.tick }

// Stats returns a copy of the accumulated counters.
func (m *Memory) Stats() Stats { return m.stats }

// Fault returns the first addressing fault encountered, if any.
func (m *Memory) Fault() error { return m.fault }

// Peek reads a word directly (for harnesses and tests; not a simulated
// reference).
func (m *Memory) Peek(addr int64) (isa.Value, bool) {
	if addr < 0 || addr >= int64(len(m.words)) {
		return isa.Value{}, false
	}
	return m.words[addr], m.full[addr]
}

// Poke writes a word directly (for harnesses and tests).
func (m *Memory) Poke(addr int64, v isa.Value, full bool) {
	if addr < 0 || addr >= int64(len(m.words)) {
		return
	}
	m.words[addr] = v
	m.full[addr] = full
}

// latency draws the total access latency for a new reference.
func (m *Memory) latency() int {
	lat := m.model.HitLatency
	if m.model.MissRate > 0 && m.rnd.Float64() < m.model.MissRate {
		m.stats.Misses++
		pen := m.model.MissPenaltyMin
		if m.model.MissPenaltyMax > m.model.MissPenaltyMin {
			pen = m.rnd.Range(m.model.MissPenaltyMin, m.model.MissPenaltyMax)
		}
		m.stats.PenaltySum += int64(pen)
		lat += pen
	} else {
		m.stats.Hits++
	}
	return lat
}

// Issue accepts a new reference. The reference arrives at the addressed
// word after the model's (possibly random) latency; its precondition is
// evaluated on arrival.
func (m *Memory) Issue(req *Request) error {
	if req.Addr < 0 || req.Addr >= int64(len(m.words)) {
		err := &AddressError{Addr: req.Addr, Size: int64(len(m.words)), IsStore: req.IsStore}
		if m.fault == nil {
			m.fault = err
		}
		return err
	}
	if req.IsStore {
		m.stats.Stores++
	} else {
		m.stats.Loads++
	}
	req.issuedAt = m.tick
	if m.model.ModelBankConflicts {
		bank := int(req.Addr % int64(m.model.Banks))
		if m.bankBusy[bank] {
			m.stats.BankConflict++
			m.bankQueue[bank] = append(m.bankQueue[bank], req)
			return nil
		}
		m.bankBusy[bank] = true
	}
	m.start(req)
	return nil
}

// start places a reference in flight. References to the same address are
// kept in issue order when at least one is a store (the bank serializes
// conflicting accesses), so a short-latency store can never overtake an
// earlier long-latency store to the same word.
func (m *Memory) start(req *Request) {
	var remaining int
	if !req.IsStore && req.PrefHit {
		// A stride prefetch already fetched this word. Once the prefetch
		// has (nearly) landed the demand load completes at hit latency
		// with no demand draw; while still in flight, the load waits for
		// it, capped by its own draw — a prefetch never slows a load.
		wait := int(req.PrefReady - m.tick)
		if wait <= m.model.HitLatency {
			m.stats.Hits++
			remaining = m.model.HitLatency
		} else {
			remaining = m.latency()
			if wait < remaining {
				remaining = wait
			}
		}
	} else {
		remaining = m.latency()
	}
	for _, f := range m.pending {
		if f.req.Addr == req.Addr && (f.req.IsStore || req.IsStore) && f.remaining >= remaining {
			remaining = f.remaining + 1
		}
	}
	m.pending = append(m.pending, inflight{req: req, remaining: remaining})
}

// Tick advances the memory one cycle and returns the references that
// completed this cycle. The returned slice aliases an internal scratch
// buffer: it is valid only until the next Tick call, and callers must
// consume (or copy) it immediately.
func (m *Memory) Tick() []Completion {
	m.tick++
	done := m.doneScratch[:0]
	// Age in-flight references; arrivals are processed in issue order.
	next := m.pending[:0]
	arrivals := m.arrivalsScratch[:0]
	for _, f := range m.pending {
		f.remaining--
		if f.remaining <= 0 {
			arrivals = append(arrivals, f.req)
		} else {
			next = append(next, f)
		}
	}
	m.pending = next
	m.arrivalsScratch = arrivals[:0]
	// Service parked queues scheduled by earlier commits: commit the
	// front of the queue matching the word's current state (one
	// reference per address per cycle, strict FIFO per direction).
	// The due list's backing is reused for the next tick's schedule:
	// nothing appends to dueService until the merge below, after this
	// loop has finished reading it.
	due := m.dueService
	m.dueService = due[:0]
	for _, addr := range due {
		queues := m.parkedEmpty
		if m.full[addr] {
			queues = m.parkedFull
		}
		queue := queues[addr]
		if len(queue) == 0 {
			continue // the next enabling commit re-schedules service
		}
		front := queue[0]
		queues[addr] = queue[1:]
		if len(queues[addr]) == 0 {
			delete(queues, addr)
		}
		m.nPark--
		done = append(done, m.commit(front))
	}
	for _, req := range arrivals {
		done = m.arrive(req, done)
	}
	// Fault-delayed reactivations whose time has come join the commits
	// made this tick; both re-examine their queues next tick.
	for len(m.delayed) > 0 && m.delayed[0].Due <= m.tick+1 {
		m.nextService = append(m.nextService, m.delayed[0].Addr)
		m.delayed = m.delayed[1:]
	}
	if len(m.nextService) > 0 {
		slices.Sort(m.nextService)
		for _, a := range m.nextService {
			if len(m.dueService) == 0 || m.dueService[len(m.dueService)-1] != a {
				m.dueService = append(m.dueService, a)
			}
		}
		m.nextService = m.nextService[:0]
	}
	// Release banks and start queued references (one per bank per cycle).
	if m.model.ModelBankConflicts {
		for b := range m.bankBusy {
			m.bankBusy[b] = false
			if len(m.bankQueue[b]) > 0 {
				req := m.bankQueue[b][0]
				m.bankQueue[b] = m.bankQueue[b][1:]
				m.bankBusy[b] = true
				m.start(req)
			}
		}
	}
	m.doneScratch = done
	return done
}

// waitQueue returns the direction queue a synchronizing reference waits
// in, or nil for unconditional references.
func (m *Memory) waitQueue(req *Request) map[int64][]*Request {
	switch req.Sync {
	case isa.SyncWaitFull, isa.SyncConsume:
		return m.parkedFull
	case isa.SyncProduce:
		return m.parkedEmpty
	}
	return nil
}

// arrive applies one reference at its addressed word: it completes when
// its precondition holds and no earlier reference of the same wait
// direction is parked at the address (strict FIFO per direction);
// otherwise it parks at the back of its direction's queue, serviced one
// per cycle as commits flip the presence bit.
func (m *Memory) arrive(req *Request, done []Completion) []Completion {
	addr := req.Addr
	q := m.waitQueue(req)
	if q != nil && (!m.preconditionHolds(req) || len(q[addr]) > 0) {
		q[addr] = append(q[addr], req)
		m.nPark++
		m.stats.Parked++
		if m.nPark > m.stats.MaxParked {
			m.stats.MaxParked = m.nPark
		}
		return done
	}
	done = append(done, m.commit(req))
	return done
}

// scheduleService arranges for the parked queues at addr to be
// re-examined after the split-transaction reactivation latency. With a
// fault injector installed the reactivation may be delayed by extra
// cycles or lost outright; a lost wakeup leaves the parked references
// stranded until the simulator's watchdog calls RecoverLostWakeups.
func (m *Memory) scheduleService(addr int64) {
	if len(m.parkedFull[addr]) == 0 && len(m.parkedEmpty[addr]) == 0 {
		return
	}
	if m.inj != nil {
		extra, dropped := m.inj.ReactivationFault()
		if dropped {
			return
		}
		if extra > 0 {
			m.delayed = append(m.delayed, delayedService{Addr: addr, Due: m.tick + 1 + int64(extra)})
			sort.Slice(m.delayed, func(i, j int) bool {
				if m.delayed[i].Due != m.delayed[j].Due {
					return m.delayed[i].Due < m.delayed[j].Due
				}
				return m.delayed[i].Addr < m.delayed[j].Addr
			})
			return
		}
	}
	m.nextService = append(m.nextService, addr)
}

func (m *Memory) preconditionHolds(req *Request) bool {
	full := m.full[req.Addr]
	switch req.Sync {
	case isa.SyncNone:
		return true
	case isa.SyncWaitFull, isa.SyncConsume:
		return full
	case isa.SyncProduce:
		return !full
	}
	return true
}

// commit applies the reference's effect and postcondition, then arranges
// for any parked references at the address to be serviced.
func (m *Memory) commit(req *Request) Completion {
	addr := req.Addr
	c := Completion{Req: req}
	lat := m.tick - req.issuedAt
	if lat < 1 {
		lat = 1
	}
	m.stats.LatencyHist[latencyBucket(lat)]++
	if req.IsStore {
		m.words[addr] = req.Store
		switch req.Sync {
		case isa.SyncNone, isa.SyncProduce:
			m.full[addr] = true
		case isa.SyncWaitFull:
			// leave full
		}
	} else {
		c.Value = m.words[addr]
		switch req.Sync {
		case isa.SyncConsume:
			m.full[addr] = false
		default:
			// leave as is
		}
	}
	m.scheduleService(addr)
	return c
}

// SkipBudget returns how many immediately upcoming Ticks are provably
// no-ops: no arrival completes, no parked queue is serviced, no delayed
// reactivation is promoted, and no bank starts a queued reference. The
// simulator's event core uses it to jump over idle stretches; SkipTicks
// applies the jump. 0 means the next tick may do work and must execute.
//
// The delayed bound is tick Due-2, not Due-1: a reactivation due at D is
// promoted into dueService during Tick(D-1) (the `Due <= tick+1` test)
// and serviced during Tick(D), so Tick(D-1) must execute normally.
func (m *Memory) SkipBudget() int64 {
	if len(m.dueService) > 0 || len(m.nextService) > 0 {
		return 0
	}
	budget := int64(1) << 62
	for i := range m.pending {
		if r := int64(m.pending[i].remaining) - 1; r < budget {
			budget = r
		}
	}
	if len(m.delayed) > 0 {
		if d := m.delayed[0].Due - m.tick - 2; d < budget {
			budget = d
		}
	}
	for b := range m.bankQueue {
		if len(m.bankQueue[b]) > 0 {
			return 0
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// SkipTicks advances the memory clock by k ticks at once, equivalent to
// k consecutive Tick calls under a SkipBudget() >= k guarantee: in-flight
// references age without arriving, no queue is touched, and busy banks
// release exactly as the first skipped tick would have released them. The
// statistical latency stream is untouched (draws happen at Issue, and no
// reference can issue during a skipped tick).
func (m *Memory) SkipTicks(k int64) {
	m.tick += k
	for i := range m.pending {
		m.pending[i].remaining -= int(k)
	}
	for b := range m.bankBusy {
		m.bankBusy[b] = false
	}
}

// HasLostWakeups is the read-only twin of RecoverLostWakeups' scan: it
// reports whether any parked queue in the direction enabled by its word's
// presence state lacks a scheduled reactivation. The event core uses it
// to decide whether the watchdog window is a real skip horizon (a sweep
// that would find nothing changes nothing and may be jumped over).
func (m *Memory) HasLostWakeups() bool {
	for addr, q := range m.parkedFull {
		if len(q) > 0 && m.full[addr] && !m.serviceScheduled(addr) {
			return true
		}
	}
	for addr, q := range m.parkedEmpty {
		if len(q) > 0 && !m.full[addr] && !m.serviceScheduled(addr) {
			return true
		}
	}
	return false
}

// ParkedCount returns the number of references currently waiting on
// presence bits (for tests and deadlock diagnosis).
func (m *Memory) ParkedCount() int { return m.nPark }

// PendingCount returns the number of in-flight references.
func (m *Memory) PendingCount() int {
	n := len(m.pending)
	for _, q := range m.bankQueue {
		n += len(q)
	}
	return n
}

// Quiescent reports whether no references are in flight, queued, or
// parked.
func (m *Memory) Quiescent() bool { return m.nPark == 0 && m.PendingCount() == 0 }

// WaitState locates an outstanding reference for stall attribution.
type WaitState int

const (
	// WaitNone: no matching reference is outstanding.
	WaitNone WaitState = iota
	// WaitInFlight: travelling to/from the memory (plain latency).
	WaitInFlight
	// WaitBank: queued behind a busy bank (bank-conflict model).
	WaitBank
	// WaitParked: parked on a presence-bit precondition.
	WaitParked
)

// FindWait reports where the first outstanding reference whose tag
// satisfies match currently waits, preferring the most specific state
// (parked, then bank-queued, then in flight). Used by the simulator's
// stall attribution; read-only.
func (m *Memory) FindWait(match func(Tag) bool) WaitState {
	st, _ := m.FindWaitAddr(match)
	return st
}

// FindWaitAddr is FindWait plus the waited-on address (valid unless the
// state is WaitNone). Used by deadlock diagnosis to name the memory
// word blocking a stalled thread.
func (m *Memory) FindWaitAddr(match func(Tag) bool) (WaitState, int64) {
	for _, q := range m.parkedFull {
		for _, r := range q {
			if match(r.Tag) {
				return WaitParked, r.Addr
			}
		}
	}
	for _, q := range m.parkedEmpty {
		for _, r := range q {
			if match(r.Tag) {
				return WaitParked, r.Addr
			}
		}
	}
	for _, q := range m.bankQueue {
		for _, r := range q {
			if match(r.Tag) {
				return WaitBank, r.Addr
			}
		}
	}
	for i := range m.pending {
		if match(m.pending[i].req.Tag) {
			return WaitInFlight, m.pending[i].req.Addr
		}
	}
	return WaitNone, 0
}

// serviceScheduled reports whether a reactivation for addr is already
// queued (due this tick, enabled this tick, or fault-delayed).
func (m *Memory) serviceScheduled(addr int64) bool {
	for _, a := range m.dueService {
		if a == addr {
			return true
		}
	}
	for _, a := range m.nextService {
		if a == addr {
			return true
		}
	}
	for _, d := range m.delayed {
		if d.Addr == addr {
			return true
		}
	}
	return false
}

// RecoverLostWakeups re-schedules service for every address whose
// parked queue in the direction enabled by the word's current presence
// state is non-empty but has no reactivation queued — the signature of
// a dropped wakeup. On a healthy machine this is a no-op: every commit
// that leaves parked references behind schedules a service, and a
// direction-mismatched queue is a genuine unsatisfied precondition, not
// a lost wakeup. Returns the number of addresses recovered. Called by
// the simulator's forward-progress watchdog between cycles.
func (m *Memory) RecoverLostWakeups() int {
	var addrs []int64
	for addr, q := range m.parkedFull {
		if len(q) > 0 && m.full[addr] && !m.serviceScheduled(addr) {
			addrs = append(addrs, addr)
		}
	}
	for addr, q := range m.parkedEmpty {
		if len(q) > 0 && !m.full[addr] && !m.serviceScheduled(addr) {
			addrs = append(addrs, addr)
		}
	}
	if len(addrs) == 0 {
		return 0
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	// Retried wakeups bypass the injector: re-faulting a recovery would
	// let an unlucky stream livelock the watchdog's bounded retries.
	merged := append(m.dueService, addrs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	m.dueService = merged[:0]
	for _, a := range merged {
		if len(m.dueService) == 0 || m.dueService[len(m.dueService)-1] != a {
			m.dueService = append(m.dueService, a)
		}
	}
	return len(addrs)
}

// ReqState is a Request's serializable form.
type ReqState struct {
	IsStore   bool      `json:"is_store,omitempty"`
	Sync      int       `json:"sync"`
	Addr      int64     `json:"addr"`
	Store     isa.Value `json:"store"`
	Tag       Tag       `json:"tag"`
	PrefHit   bool      `json:"pref_hit,omitempty"`
	PrefReady int64     `json:"pref_ready,omitempty"`
	IssuedAt  int64     `json:"issued_at"`
}

// PendingState is an in-flight reference's serializable form.
type PendingState struct {
	Req       ReqState `json:"req"`
	Remaining int      `json:"remaining"`
}

// QueueState is one parked-queue (per address, per direction) in
// serializable form; queue order is preserved.
type QueueState struct {
	Addr int64      `json:"addr"`
	Reqs []ReqState `json:"reqs"`
}

// State is the memory's complete serializable state for cycle-boundary
// checkpoints.
type State struct {
	Words       []isa.Value      `json:"words"`
	Full        []bool           `json:"full"`
	Pending     []PendingState   `json:"pending,omitempty"`
	ParkedFull  []QueueState     `json:"parked_full,omitempty"`
	ParkedEmpty []QueueState     `json:"parked_empty,omitempty"`
	DueService  []int64          `json:"due_service,omitempty"`
	NextService []int64          `json:"next_service,omitempty"`
	Delayed     []delayedService `json:"delayed,omitempty"`
	BankQueues  [][]ReqState     `json:"bank_queues,omitempty"`
	BankBusy    []bool           `json:"bank_busy,omitempty"`
	Tick        int64            `json:"tick"`
	Stats       Stats            `json:"stats"`
	Rnd         uint64           `json:"rnd"`
	Fault       *AddressError    `json:"fault,omitempty"`
}

func encodeReq(r *Request) ReqState {
	return ReqState{
		IsStore: r.IsStore, Sync: int(r.Sync), Addr: r.Addr,
		Store: r.Store, Tag: r.Tag, IssuedAt: r.issuedAt,
		PrefHit: r.PrefHit, PrefReady: r.PrefReady,
	}
}

func decodeReq(rs ReqState) *Request {
	return &Request{
		IsStore: rs.IsStore, Sync: isa.SyncFlavor(rs.Sync), Addr: rs.Addr,
		Store: rs.Store, Tag: rs.Tag, issuedAt: rs.IssuedAt,
		PrefHit: rs.PrefHit, PrefReady: rs.PrefReady,
	}
}

func encodeQueues(queues map[int64][]*Request) []QueueState {
	addrs := make([]int64, 0, len(queues))
	for addr := range queues {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []QueueState
	for _, addr := range addrs {
		qs := QueueState{Addr: addr}
		for _, r := range queues[addr] {
			qs.Reqs = append(qs.Reqs, encodeReq(r))
		}
		out = append(out, qs)
	}
	return out
}

// Snapshot captures the memory's complete state at a tick boundary.
func (m *Memory) Snapshot() (*State, error) {
	st := &State{
		Words:       append([]isa.Value(nil), m.words...),
		Full:        append([]bool(nil), m.full...),
		DueService:  append([]int64(nil), m.dueService...),
		NextService: append([]int64(nil), m.nextService...),
		Delayed:     append([]delayedService(nil), m.delayed...),
		BankBusy:    append([]bool(nil), m.bankBusy...),
		Tick:        m.tick,
		Stats:       m.stats,
		Rnd:         m.rnd.State(),
	}
	if m.fault != nil {
		if ae, ok := m.fault.(*AddressError); ok {
			st.Fault = ae
		} else {
			return nil, fmt.Errorf("memsys: cannot snapshot non-address fault: %v", m.fault)
		}
	}
	for _, f := range m.pending {
		st.Pending = append(st.Pending, PendingState{Req: encodeReq(f.req), Remaining: f.remaining})
	}
	st.ParkedFull = encodeQueues(m.parkedFull)
	st.ParkedEmpty = encodeQueues(m.parkedEmpty)
	for _, q := range m.bankQueue {
		var bq []ReqState
		for _, r := range q {
			bq = append(bq, encodeReq(r))
		}
		st.BankQueues = append(st.BankQueues, bq)
	}
	return st, nil
}

func decodeQueues(states []QueueState) (map[int64][]*Request, int) {
	out := make(map[int64][]*Request)
	n := 0
	for _, qs := range states {
		var q []*Request
		for _, rs := range qs.Reqs {
			q = append(q, decodeReq(rs))
			n++
		}
		out[qs.Addr] = q
	}
	return out, n
}

// Restore resets the memory to a snapshotted state. The memory must
// have been built from the same machine model and size.
func (m *Memory) Restore(st *State) error {
	if int64(len(st.Words)) != int64(len(m.words)) {
		return fmt.Errorf("memsys: snapshot has %d words, memory has %d", len(st.Words), len(m.words))
	}
	if len(st.BankQueues) > len(m.bankQueue) {
		return fmt.Errorf("memsys: snapshot has %d bank queues, memory has %d", len(st.BankQueues), len(m.bankQueue))
	}
	copy(m.words, st.Words)
	copy(m.full, st.Full)
	m.pending = nil
	for _, ps := range st.Pending {
		m.pending = append(m.pending, inflight{req: decodeReq(ps.Req), remaining: ps.Remaining})
	}
	var nFull, nEmpty int
	m.parkedFull, nFull = decodeQueues(st.ParkedFull)
	m.parkedEmpty, nEmpty = decodeQueues(st.ParkedEmpty)
	m.nPark = nFull + nEmpty
	m.dueService = append([]int64(nil), st.DueService...)
	m.nextService = append([]int64(nil), st.NextService...)
	m.delayed = append([]delayedService(nil), st.Delayed...)
	if m.bankQueue != nil {
		m.bankQueue = make([][]*Request, len(m.bankQueue))
		for b, bq := range st.BankQueues {
			for _, rs := range bq {
				m.bankQueue[b] = append(m.bankQueue[b], decodeReq(rs))
			}
		}
		copy(m.bankBusy, st.BankBusy)
	}
	m.tick = st.Tick
	m.stats = st.Stats
	m.rnd.SetState(st.Rnd)
	m.fault = nil
	if st.Fault != nil {
		m.fault = st.Fault
	}
	// Service and completion index the image by address, so every
	// restored address must lie inside it.
	inMemory := func(a int64) error {
		if a < 0 || a >= int64(len(m.words)) {
			return fmt.Errorf("memsys: snapshot address %d outside memory of %d words", a, len(m.words))
		}
		return nil
	}
	addrs := append(append([]int64(nil), m.dueService...), m.nextService...)
	for _, d := range m.delayed {
		addrs = append(addrs, d.Addr)
	}
	for _, q := range append(append([]QueueState(nil), st.ParkedFull...), st.ParkedEmpty...) {
		addrs = append(addrs, q.Addr)
	}
	for _, a := range addrs {
		if err := inMemory(a); err != nil {
			return err
		}
	}
	return m.ForEachRequest(func(r *Request) error { return inMemory(r.Addr) })
}

// ForEachRequest visits every outstanding reference (in flight, bank
// queued, and parked, in that order), stopping at the first error. The
// simulator uses it after Restore to validate restored tags against the
// loaded program.
func (m *Memory) ForEachRequest(f func(*Request) error) error {
	for i := range m.pending {
		if err := f(m.pending[i].req); err != nil {
			return err
		}
	}
	for _, q := range m.bankQueue {
		for _, r := range q {
			if err := f(r); err != nil {
				return err
			}
		}
	}
	for _, queues := range []map[int64][]*Request{m.parkedFull, m.parkedEmpty} {
		for _, q := range queues {
			for _, r := range q {
				if err := f(r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
