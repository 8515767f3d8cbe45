package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// Gateway submission errors distinguished by the HTTP layer.
var (
	// ErrDraining: the gateway is shutting down.
	ErrDraining = errors.New("fleet: shutting down, not accepting jobs")
	// ErrNotFound: no such gateway job.
	ErrNotFound = errors.New("fleet: no such job")
)

// Options configures a Gateway.
type Options struct {
	// Pool configures the backend set and health checking.
	Pool PoolOptions
	// Tenants authenticates and meters submitters; nil runs open, with a
	// single unlimited "default" tenant and no key required.
	Tenants *tenant.Registry
	// BackendConcurrency is the worker count per backend draining the
	// tenant-fair dispatch queues (default 8).
	BackendConcurrency int
	// StealChunk bounds the cells moved per work-stealing transfer from a
	// saturated backend's queue tail to an idle backend (default 8).
	StealChunk int
	// NoPeerFill disables the distributed cache probe (owner's cache,
	// then the next ring node's) before computing a cell.
	NoPeerFill bool
	// HighWatermark is the global queued-cell count above which new batch
	// submissions are shed with 429; above twice the mark every class is
	// shed (default 4096; negative disables).
	HighWatermark int
	// RetryBudget is the attempt count per cell across backends before
	// the job fails (default 3).
	RetryBudget int
	// RetryBackoff is the base delay between failover attempts of one
	// cell; it doubles per attempt, capped at 30s (default 200ms).
	RetryBackoff time.Duration
	// PresetNames lists preset names known to the backends besides
	// "baseline"; specs naming them are forwarded without local
	// validation (the backend validates).
	PresetNames []string
}

func (o *Options) defaults() {
	if o.Tenants == nil {
		o.Tenants = tenant.Open()
	}
	if o.BackendConcurrency <= 0 {
		o.BackendConcurrency = 8
	}
	if o.HighWatermark == 0 {
		o.HighWatermark = 4096
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
}

// Gateway fronts a pool of pcserved backends behind the same HTTP job
// API: sweeps scatter across the ring per cell and gather back in grid
// order (byte-identical to a single backend); other jobs forward whole
// to their content-key owner.
type Gateway struct {
	opts    Options
	pool    *Pool
	tenants *tenant.Registry
	disp    *dispatcher
	metrics *Metrics
	client  *http.Client // dispatch client (no timeout: streams are long)
	probe   *http.Client // peer-fill cache probes (bounded)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // job goroutines
	workerWg   sync.WaitGroup // dispatch workers

	mu        sync.Mutex
	jobs      map[string]*fleetJob
	order     []*fleetJob
	nextID    int
	accepting bool
	started   bool
}

// New builds a Gateway; call Start before serving its Handler.
func New(opts Options) (*Gateway, error) {
	opts.defaults()
	m := NewMetrics()
	pool, err := newPool(opts.Pool, m)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Gateway{
		opts:       opts,
		pool:       pool,
		tenants:    opts.Tenants,
		disp:       newDispatcher(opts.Pool.Backends, opts.StealChunk, m),
		metrics:    m,
		client:     &http.Client{},
		probe:      &http.Client{Timeout: 2 * time.Second},
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*fleetJob{},
		accepting:  true,
	}, nil
}

// Metrics exposes the gateway's counters (tests and tooling).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Pool exposes the backend pool (tests and tooling).
func (g *Gateway) Pool() *Pool { return g.pool }

// Tenants exposes the tenant registry (the HTTP layer authenticates
// against it).
func (g *Gateway) Tenants() *tenant.Registry { return g.tenants }

// Start probes the backends once, launches the health-check loop, and
// spawns the per-backend dispatch workers.
func (g *Gateway) Start() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return errors.New("fleet: already started")
	}
	g.started = true
	g.pool.start()
	for _, b := range g.pool.all() {
		for i := 0; i < g.opts.BackendConcurrency; i++ {
			g.workerWg.Add(1)
			go g.worker(b)
		}
	}
	return nil
}

// Shutdown stops the gateway: new submissions are refused, in-flight
// jobs drain until ctx expires (then their dispatches are cancelled),
// and the prober stops.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.accepting = false
	started := g.started
	g.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(waited)
	}()
	var drainErr error
	select {
	case <-waited:
	case <-ctx.Done():
		g.baseCancel()
		<-waited
		drainErr = ctx.Err()
	}
	g.baseCancel()
	g.disp.close()
	g.workerWg.Wait()
	if started {
		g.pool.close()
	}
	return drainErr
}

// fleetJob is one gateway job: a scattered sweep or a forwarded unit.
type fleetJob struct {
	mu sync.Mutex

	id      string
	spec    service.JobSpec
	tenant  *tenant.Tenant
	state   service.JobState
	errMsg  string
	result  json.RawMessage
	cells   []json.RawMessage
	total   int
	hit     bool // every dispatch was served from a backend cache
	created time.Time
	started time.Time
	ended   time.Time

	cancelled bool
	cancel    context.CancelFunc
	updated   chan struct{}
	done      chan struct{}
}

func (j *fleetJob) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// appendCell records one merged cell in grid order and wakes streamers.
func (j *fleetJob) appendCell(payload json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells = append(j.cells, payload)
	j.notifyLocked()
}

func (j *fleetJob) finish(state service.JobState, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.ended = time.Now()
	j.notifyLocked()
	close(j.done)
}

// view renders the job as the shared wire representation.
func (j *fleetJob) view(withResult bool) service.JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := service.JobView{
		ID: j.id, State: j.state, Spec: j.spec, Error: j.errMsg,
		CacheHit:  j.hit,
		CellsDone: len(j.cells), CellsTotal: j.total,
		Created: j.created,
	}
	if j.tenant != nil {
		v.Tenant = j.tenant.Name()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// Submit runs SubmitAs for the open-mode default tenant (tests,
// embedded use). With a closed registry it fails: callers must
// authenticate and use SubmitAs.
func (g *Gateway) Submit(spec service.JobSpec) (*fleetJob, error) {
	ten := g.tenants.Default()
	if ten == nil {
		return nil, tenant.ErrUnauthorized
	}
	return g.SubmitAs(spec, ten)
}

// SubmitAs validates spec (as far as the gateway can without the
// backends' preset tables), runs admission control for the tenant, and
// launches the job's execution. A *tenant.QuotaError return maps to
// HTTP 429 + Retry-After.
func (g *Gateway) SubmitAs(spec service.JobSpec, ten *tenant.Tenant) (*fleetJob, error) {
	if err := g.validate(&spec); err != nil {
		return nil, err
	}
	cells := 1
	if spec.Sweep != nil {
		cells = len(spec.Sweep.Cells())
	}
	if err := g.admit(ten, cells); err != nil {
		return nil, err
	}
	g.mu.Lock()
	if !g.accepting {
		g.mu.Unlock()
		ten.SubQueued(cells)
		return nil, ErrDraining
	}
	g.nextID++
	job := &fleetJob{
		id:      fmt.Sprintf("f-%06d", g.nextID),
		spec:    spec,
		tenant:  ten,
		state:   service.JobQueued,
		created: time.Now(),
		updated: make(chan struct{}),
		done:    make(chan struct{}),
	}
	g.jobs[job.id] = job
	g.order = append(g.order, job)
	g.wg.Add(1)
	g.mu.Unlock()
	g.metrics.jobs.Inc(string(service.JobQueued))

	go func() {
		defer g.wg.Done()
		g.runJob(job)
	}()
	return job, nil
}

// admit applies global load shedding, then the tenant's own quotas, for
// a submission of n cells. On success the tenant's queued count is
// raised by n; every rejection is counted in pcfleet_shed_total.
func (g *Gateway) admit(ten *tenant.Tenant, n int) error {
	if hw := g.opts.HighWatermark; hw > 0 {
		total := g.disp.queued()
		var reason string
		switch {
		case total+n > 2*hw:
			// Past twice the mark the gateway protects itself from
			// everyone; below it only batch is shed, so interactive work
			// stays admissible while the flood is turned away.
			reason = fmt.Sprintf("gateway overloaded: %d cells queued (hard cap %d)", total, 2*hw)
		case ten.Class() == tenant.Batch && total+n > hw:
			reason = fmt.Sprintf("gateway busy: %d cells queued, batch is shed above %d", total, hw)
		}
		if reason != "" {
			g.metrics.shed.Inc(string(ten.Class()))
			return &tenant.QuotaError{
				Tenant: ten.Name(), Class: ten.Class(),
				Reason: reason, RetryAfter: 2 * time.Second,
			}
		}
	}
	if qe := ten.Admit(n); qe != nil {
		g.metrics.shed.Inc(string(ten.Class()))
		return qe
	}
	return nil
}

// validate mirrors the backend's spec validation where the gateway has
// the information; preset resolution beyond "baseline" is left to the
// backend that receives the forwarded job.
func (g *Gateway) validate(spec *service.JobSpec) error {
	if spec.Preset != "" && spec.Preset != "baseline" {
		known := false
		for _, n := range g.opts.PresetNames {
			if n == spec.Preset {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("unknown preset %q (gateway knows: %s)", spec.Preset, presetList(g.opts.PresetNames))
		}
		// Minimal structural checks; the owning backend validates fully.
		selected := 0
		if spec.Experiment != "" {
			selected++
		}
		if spec.Cell != nil {
			selected++
		}
		if spec.Sweep != nil {
			selected++
		}
		if spec.Program != nil {
			selected++
		}
		if selected != 1 {
			return fmt.Errorf("spec must set exactly one of experiment, cell, sweep, program (got %d)", selected)
		}
		// Mirror the backend rule: a sweep with a preset is always invalid,
		// and skipping Normalize here would scatter an unnormalized sweep
		// (empty bench list, unchecked geometry) into zero cells.
		if spec.Sweep != nil {
			return fmt.Errorf("sweep jobs build their own machines (machine/preset must be unset)")
		}
		return nil
	}
	_, err := spec.Normalize(map[string]*machine.Config{"baseline": machine.Baseline()})
	return err
}

func presetList(names []string) string {
	out := "baseline"
	for _, n := range names {
		out += ", " + n
	}
	return out
}

// Get returns a gateway job by id.
func (g *Gateway) Get(id string) (*fleetJob, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	job, ok := g.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// List snapshots all gateway jobs in submission order.
func (g *Gateway) List() []service.JobView {
	g.mu.Lock()
	jobs := append([]*fleetJob(nil), g.order...)
	g.mu.Unlock()
	out := make([]service.JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view(false)
	}
	return out
}

// Cancel requests cancellation of a gateway job; in-flight backend
// dispatches observe it through their request contexts.
func (g *Gateway) Cancel(id string) (*fleetJob, error) {
	job, err := g.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	job.cancelled = true
	state := job.state
	cancel := job.cancel
	job.mu.Unlock()
	if state.Terminal() {
		return job, nil
	}
	if cancel != nil {
		cancel()
	} else {
		job.finish(service.JobCancelled, nil, "cancelled before execution")
		g.metrics.jobs.Inc(string(service.JobCancelled))
	}
	return job, nil
}
