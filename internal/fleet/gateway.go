package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
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
	// "baseline"; specs naming them pass only the checks that need no
	// machine (JobSpec.CheckShape) here, and the backend resolves the
	// rest.
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
	// presets is the one preset validate resolves itself, built once.
	presets map[string]*machine.Config

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // job goroutines
	workerWg   sync.WaitGroup // dispatch workers

	jobs *service.JobTable

	mu        sync.Mutex
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
	// One kept-alive connection per dispatch worker and backend, plus
	// room for the peer-fill probes, so a dispatch never waits on a dial.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = opts.BackendConcurrency + 2
	return &Gateway{
		opts:       opts,
		pool:       pool,
		tenants:    opts.Tenants,
		disp:       newDispatcher(opts.Pool.Backends, m),
		metrics:    m,
		client:     &http.Client{Transport: tr},
		probe:      &http.Client{Transport: tr, Timeout: 2 * time.Second},
		presets:    map[string]*machine.Config{"baseline": machine.Baseline()},
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       &service.JobTable{Prefix: "f-", QuietHits: true, Transitions: m.jobs},
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
	stopPool := g.started && g.accepting
	g.accepting = false
	g.mu.Unlock()

	drainErr := service.Drain(ctx, &g.wg, g.baseCancel)
	g.disp.close()
	g.workerWg.Wait()
	if stopPool {
		g.pool.close()
	}
	return drainErr
}

// Submit runs SubmitAs for the open-mode default tenant (tests,
// embedded use). With a closed registry it fails: callers must
// authenticate and use SubmitAs.
func (g *Gateway) Submit(spec service.JobSpec) (*service.Job, error) {
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
func (g *Gateway) SubmitAs(spec service.JobSpec, ten *tenant.Tenant) (*service.Job, error) {
	spec = spec.Clone()
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
		return nil, service.ErrDraining
	}
	job, _ := g.jobs.Add(spec, nil, ten.Name(), nil)
	g.wg.Add(1)
	g.mu.Unlock()

	go func() {
		defer g.wg.Done()
		g.runJob(job, ten, cells)
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

// validate runs the backend's spec validation where the gateway has
// the information: a preset beyond "baseline" is resolved by the
// backend that receives the forwarded job, so its spec gets only the
// checks that need no machine.
func (g *Gateway) validate(spec *service.JobSpec) error {
	if spec.Preset == "" || spec.Preset == "baseline" {
		_, err := spec.Normalize(g.presets)
		return err
	}
	if !slices.Contains(g.opts.PresetNames, spec.Preset) {
		known := strings.Join(append([]string{"baseline"}, g.opts.PresetNames...), ", ")
		return fmt.Errorf("unknown preset %q (gateway knows: %s)", spec.Preset, known)
	}
	return spec.CheckShape()
}

// List snapshots the gateway jobs its table holds, in submission order.
func (g *Gateway) List() []service.JobView { return g.jobs.List() }
