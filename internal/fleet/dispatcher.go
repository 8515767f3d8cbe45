package fleet

import (
	"context"
	"sync"

	"pcoup/internal/tenant"
)

// The dispatcher keeps per-backend queues drained by worker
// goroutines. Placement stays static — each task is enqueued at its
// content key's ring owner, so cache affinity is the common case —
// while arbitration is dynamic:
//
//   - Within a backend queue, tenants are served by weighted deficit
//     round robin (DRR) under strict priority classes (interactive
//     before batch), so one tenant's flood interleaves fairly with
//     everyone else instead of forming a FIFO convoy. A lone tenant's
//     cells pop in arrival order.
//   - A tenant at its MaxInflightCells cap is skipped without consuming
//     its deficit; its cells wait queued while others proceed.
//   - When a backend's workers run dry they steal a chunk of queued
//     cells from the tail of the deepest other queue. Tail-stealing
//     preserves the victim's head-of-queue cache locality (the head is
//     what its own workers reach next); the peer-fill probe in
//     dispatchTask keeps stolen warm cells from being recomputed.
//
// This mirrors the paper's split: the ring is the compile-time
// placement, DRR + stealing are the runtime arbitration.

// defaultStealChunk bounds how many cells move per steal. Chunked
// stealing amortizes the lock while leaving work behind for the
// victim's own (cache-warm) workers.
const defaultStealChunk = 8

// taskResult is delivered to the job's single consumer goroutine.
type taskResult struct {
	index   int // cell index within the sweep (0 for unit jobs)
	payload []byte
	hit     bool
	err     error
}

// task is one dispatchable cell (or unit job).
type task struct {
	ctx      context.Context
	ten      *tenant.Tenant
	key      string // routing/cache key
	content  bool   // key is a content key usable against /v1/cache/
	specJSON []byte
	index    int
	owner    string // backend URL the task was originally queued at
	resCh    chan taskResult
}

// tenantQueue is one tenant's FIFO of tasks within a class, plus its
// DRR deficit counter.
type tenantQueue struct {
	ten     *tenant.Tenant
	deficit int
	tasks   []*task
}

// classQueue holds the active tenants of one priority class in rotor
// order.
type classQueue struct {
	active []*tenantQueue
	byName map[string]*tenantQueue
	rotor  int
}

func newClassQueue() *classQueue {
	return &classQueue{byName: map[string]*tenantQueue{}}
}

func (cq *classQueue) push(t *task) {
	tq := cq.byName[t.ten.Name()]
	if tq == nil {
		tq = &tenantQueue{ten: t.ten}
		cq.byName[t.ten.Name()] = tq
		cq.active = append(cq.active, tq)
	}
	tq.tasks = append(tq.tasks, t)
}

// remove drops an emptied tenant queue, keeping the rotor pointed at
// the same successor.
func (cq *classQueue) remove(i int) {
	tq := cq.active[i]
	tq.deficit = 0
	delete(cq.byName, tq.ten.Name())
	cq.active = append(cq.active[:i], cq.active[i+1:]...)
	if cq.rotor > i {
		cq.rotor--
	}
	if len(cq.active) > 0 {
		cq.rotor %= len(cq.active)
	} else {
		cq.rotor = 0
	}
}

// backendQueue is the per-backend dispatch queue: one classQueue per
// priority class under DRR.
type backendQueue struct {
	classes [tenant.NumClasses]*classQueue
	depth   int
}

// push queues t under its tenant's class.
func (bq *backendQueue) push(t *task) {
	bq.classes[t.ten.Class().Index()].push(t)
	bq.depth++
}

// dispatcher owns every backend queue. One mutex guards them all: the
// critical sections are pointer shuffles, and cross-queue stealing
// needs a consistent view anyway.
type dispatcher struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*backendQueue
	order   []string // stable iteration order for stealing
	chunk   int
	closed  bool
	total   int
	metrics *Metrics
}

func newDispatcher(backends []string, stealChunk int, m *Metrics) *dispatcher {
	if stealChunk <= 0 {
		stealChunk = defaultStealChunk
	}
	d := &dispatcher{
		queues:  make(map[string]*backendQueue, len(backends)),
		chunk:   stealChunk,
		metrics: m,
	}
	d.cond = sync.NewCond(&d.mu)
	for _, url := range backends {
		if _, dup := d.queues[url]; dup {
			continue
		}
		bq := &backendQueue{}
		for i := range bq.classes {
			bq.classes[i] = newClassQueue()
		}
		d.queues[url] = bq
		d.order = append(d.order, url)
	}
	return d
}

// enqueue adds tasks to their owners' queues. Unknown owners (should
// not happen: owners come from the same backend list) fall back to the
// first queue.
func (d *dispatcher) enqueue(tasks []*task) {
	d.mu.Lock()
	for _, t := range tasks {
		bq := d.queues[t.owner]
		if bq == nil {
			t.owner = d.order[0]
			bq = d.queues[t.owner]
		}
		bq.push(t)
		d.total++
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// next blocks until a task is available for the given backend's
// workers — from its own queue, or stolen — or the dispatcher closes
// (nil return).
func (d *dispatcher) next(url string) *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil
		}
		if t := d.popLocked(url); t != nil {
			return t
		}
		d.cond.Wait()
	}
}

// popLocked takes the next task for url: own queue first, then one
// steal attempt followed by a retry of the own queue.
func (d *dispatcher) popLocked(url string) *task {
	bq := d.queues[url]
	if bq == nil {
		return nil
	}
	if t := d.popQueueLocked(bq); t != nil {
		return t
	}
	if bq.depth == 0 && d.stealLocked(url) {
		return d.popQueueLocked(bq)
	}
	return nil
}

func (d *dispatcher) popQueueLocked(bq *backendQueue) *task {
	for _, cq := range bq.classes {
		if t := d.popClassLocked(bq, cq); t != nil {
			return t
		}
	}
	return nil
}

// popClassLocked runs one DRR scan over the class's tenants. Weights
// are >= 1, so a single refill always yields a serviceable deficit: the
// scan visits at most 2n+1 queues. Quota-blocked tenants are skipped
// without consuming deficit, so they resume at full share once slots
// free up.
func (d *dispatcher) popClassLocked(bq *backendQueue, cq *classQueue) *task {
	n := len(cq.active)
	if n == 0 {
		return nil
	}
	for visits := 0; visits <= 2*n; visits++ {
		if len(cq.active) == 0 {
			return nil
		}
		i := cq.rotor % len(cq.active)
		tq := cq.active[i]
		if tq.deficit < 1 {
			tq.deficit += tq.ten.Weight()
			cq.rotor = (i + 1) % len(cq.active)
			continue
		}
		if !tq.ten.TryAcquireInflight() {
			cq.rotor = (i + 1) % len(cq.active)
			continue
		}
		tq.deficit--
		t := tq.tasks[0]
		tq.tasks = tq.tasks[1:]
		if len(tq.tasks) == 0 {
			cq.remove(i)
		}
		bq.depth--
		d.total--
		t.ten.SubQueued(1)
		return t
	}
	return nil
}

// stealLocked moves up to chunk tasks from the tail of the deepest
// other backend queue into url's queue. Returns true if anything moved.
func (d *dispatcher) stealLocked(url string) bool {
	var victim *backendQueue
	for _, other := range d.order {
		if other == url {
			continue
		}
		oq := d.queues[other]
		// Leave singleton queues alone: the victim's own worker is
		// about to take that task, and moving it would only trade one
		// cache-affine dispatch for a cold one.
		if oq.depth < 2 {
			continue
		}
		if victim == nil || oq.depth > victim.depth {
			victim = oq
		}
	}
	if victim == nil {
		return false
	}
	want := d.chunk
	if half := victim.depth / 2; want > half {
		want = half
	}
	if want < 1 {
		want = 1
	}
	stolen := d.takeTailLocked(victim, want)
	if len(stolen) == 0 {
		return false
	}
	thief := d.queues[url]
	for _, t := range stolen {
		thief.push(t)
	}
	if d.metrics != nil {
		d.metrics.steals.Add(int64(len(stolen)))
	}
	return true
}

// takeTailLocked removes up to n tasks from the tail of a queue,
// preferring batch-class work (interactive cells keep their affinity).
// Quota-blocked tenants are skipped: stealing their cells would just
// park them, blocked, in the thief's queue.
func (d *dispatcher) takeTailLocked(bq *backendQueue, n int) []*task {
	var out []*task
	// Scan classes lowest-priority first so batch is stolen before
	// interactive.
	for ci := len(bq.classes) - 1; ci >= 0 && len(out) < n; ci-- {
		cq := bq.classes[ci]
		for i := len(cq.active) - 1; i >= 0 && len(out) < n; i-- {
			tq := cq.active[i]
			if tq.ten.Inflight() > 0 && !d.tenantHasSlack(tq.ten) {
				continue
			}
			for len(out) < n && len(tq.tasks) > 0 {
				t := tq.tasks[len(tq.tasks)-1]
				tq.tasks = tq.tasks[:len(tq.tasks)-1]
				out = append(out, t)
				bq.depth--
			}
			if len(tq.tasks) == 0 {
				cq.remove(i)
			}
		}
	}
	return out
}

// tenantHasSlack reports whether the tenant can plausibly dispatch more
// cells right now (not pinned at its inflight cap).
func (d *dispatcher) tenantHasSlack(t *tenant.Tenant) bool {
	ok := t.TryAcquireInflight()
	if ok {
		t.ReleaseInflight()
	}
	return ok
}

// complete releases the inflight slot a popped task took and wakes
// workers whose tenants may have been quota-blocked on it. Call it once
// per task returned by next.
func (d *dispatcher) complete(t *task) {
	t.ten.ReleaseInflight()
	d.cond.Broadcast()
}

// queued returns the total queued (admitted, undispatched) cell count.
func (d *dispatcher) queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// depths snapshots per-backend queue depths for /metrics.
func (d *dispatcher) depths() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.queues))
	for url, bq := range d.queues {
		out[url] = bq.depth
	}
	return out
}

// close wakes every worker with a nil task.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
