// Package service is the simulation-as-a-service layer: a job queue, a
// bounded worker pool, and a content-addressed result cache behind an
// HTTP JSON API (see http.go for the routes). It turns the one-shot
// experiment drivers of internal/experiments into a long-lived daemon
// (cmd/pcserved) that serves repeated sweeps in O(1) via caching,
// supports per-job deadlines and cancellation threaded down into the
// simulator's cycle loop, and drains gracefully on shutdown.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// Submission errors distinguished by the HTTP layer.
var (
	// ErrDraining: the daemon is shutting down and accepts no new jobs.
	ErrDraining = errors.New("service: shutting down, not accepting jobs")
	// ErrQueueFull: the FIFO queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("service: no such job")
)

// Options configures a Server.
type Options struct {
	// Workers is the worker pool size (default GOMAXPROCS). Each job
	// occupies one worker; experiment drivers additionally parallelize
	// across cells internally.
	Workers int
	// SweepParallelism bounds intra-job cell parallelism: sweep jobs and
	// experiment drivers fan independent cells to this many goroutines
	// through a limiter SHARED across all workers, so total in-flight
	// cells stay bounded no matter how many jobs run at once (fair with
	// Workers rather than multiplicative). Results are merged in
	// submission order, so payloads and NDJSON streams are byte-identical
	// to sequential execution. Default GOMAXPROCS; 1 restores fully
	// sequential intra-job behavior.
	SweepParallelism int
	// QueueCap bounds the FIFO queue (default 256).
	QueueCap int
	// CacheFile, when set, is loaded at Start and persisted on Shutdown.
	CacheFile string
	// CacheMaxEntries bounds the result cache's entry count; beyond it
	// the least-recently-used entries are evicted (0: unbounded).
	CacheMaxEntries int
	// CacheMaxBytes bounds the result cache's payload bytes (0:
	// unbounded).
	CacheMaxBytes int64
	// JournalFile, when set, enables the write-ahead job journal: every
	// accepted job is durable, and a daemon killed mid-job resumes the
	// interrupted jobs (same IDs) on restart.
	JournalFile string
	// RetryBudget bounds how many times an interrupted job is re-run
	// before it is failed instead (default 3).
	RetryBudget int
	// RetryBackoff is the base delay before re-running a job that was
	// already interrupted more than once; it doubles per additional
	// interruption, capped at maxRetryBackoff (default 1s).
	RetryBackoff time.Duration
	// DefaultTimeout bounds jobs that set no timeout_ms (default 10m;
	// negative disables).
	DefaultTimeout time.Duration
	// Presets are named machine configurations offered to job specs, in
	// addition to the always-present "baseline".
	Presets map[string]*machine.Config
	// ExecHook, when set, runs at the start of every job execution
	// (before the cache lookup). Tests use it to inject failures —
	// notably panics, to exercise the worker's panic isolation. A panic
	// from the hook is indistinguishable from a compiler or simulator
	// panic.
	ExecHook func(job *Job)
}

// Server owns the queue, the pool, the cache, and the job table.
type Server struct {
	opts    Options
	cache   *Cache
	metrics *Metrics
	presets map[string]*machine.Config
	journal *journal
	// sweepLim is the process-wide cell-execution limiter shared by every
	// job (nil when SweepParallelism is 1: jobs run cells sequentially).
	sweepLim *parexec.Limiter

	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	jobs *JobTable

	mu        sync.Mutex
	accepting bool
	started   bool
}

// New builds a Server; call Start before serving its Handler.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.SweepParallelism <= 0 {
		opts.SweepParallelism = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 256
	}
	if opts.DefaultTimeout == 0 {
		opts.DefaultTimeout = 10 * time.Minute
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Second
	}
	presets := map[string]*machine.Config{"baseline": machine.Baseline()}
	for name, cfg := range opts.Presets {
		presets[name] = cfg
	}
	var lim *parexec.Limiter
	if opts.SweepParallelism > 1 {
		lim = parexec.NewLimiter(opts.SweepParallelism)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		sweepLim:   lim,
		cache:      NewBoundedCache(opts.CacheMaxEntries, opts.CacheMaxBytes),
		metrics:    NewMetrics(),
		presets:    presets,
		queue:      make(chan *Job, opts.QueueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		accepting:  true,
	}
	s.jobs = &JobTable{Prefix: "j-", Transitions: s.metrics.jobs, Finished: func(id string, state JobState) {
		if s.journal != nil {
			s.journal.finish(id, state)
		}
	}}
	return s
}

// Cache exposes the result cache (tests and tooling).
func (s *Server) Cache() *Cache { return s.cache }

// Start loads the persisted cache (if configured), replays the job
// journal (resubmitting work interrupted by a previous crash), and
// launches the worker pool.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("service: already started")
	}
	s.started = true
	if s.opts.CacheFile != "" {
		if err := s.cache.LoadFile(s.opts.CacheFile); err != nil {
			return err
		}
	}
	if s.opts.JournalFile != "" {
		j, pending, err := openJournal(s.opts.JournalFile)
		if err != nil {
			return err
		}
		s.journal = j
		for _, p := range pending {
			s.recoverLocked(p)
		}
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// recoverLocked resubmits one journaled job that the previous process
// never finished, under its original ID so clients polling across the
// restart see it complete. Called from Start with s.mu held.
func (s *Server) recoverLocked(p pendingJob) {
	spec := p.Spec
	cfg, specErr := spec.normalize(s.presets)
	attempts := p.Attempts + 1
	job := newJob(p.ID, spec, cfg, time.Now())
	job.tenant = p.Tenant
	job.attempts = attempts
	s.jobs.restore(job)
	s.metrics.journalRecovered.Inc()
	switch {
	case specErr != nil:
		// The spec no longer validates (e.g. a preset directory changed
		// across the restart): surface the error on the job itself.
		s.jobs.Finish(job, JobFailed, nil, specErr.Error())
	case attempts > s.opts.RetryBudget:
		s.metrics.retriesExhausted.Inc()
		s.jobs.Finish(job, JobFailed, nil,
			fmt.Sprintf("retry budget exhausted: interrupted %d times (budget %d)", p.Attempts, s.opts.RetryBudget))
	default:
		if err := s.journal.submit(p.ID, spec, p.Tenant, attempts); err != nil {
			s.jobs.Finish(job, JobFailed, nil, fmt.Sprintf("journal: %v", err))
			return
		}
		go s.enqueueAfter(job, Backoff(s.opts.RetryBackoff, maxRetryBackoff, attempts-1))
	}
}

// enqueueAfter places a recovered job on the queue once its retry
// backoff elapses. Shutdown during the wait cancels the job instead.
func (s *Server) enqueueAfter(job *Job, delay time.Duration) {
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-s.baseCtx.Done():
		}
	}
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		s.jobs.Finish(job, JobCancelled, nil, "cancelled by shutdown")
		return
	}
	select {
	case s.queue <- job:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.jobs.Finish(job, JobFailed, nil, "queue full during journal recovery")
	}
}

// Shutdown gracefully stops the daemon: new submissions are refused
// immediately, queued and running jobs drain, and the cache is persisted.
// If ctx expires before the drain completes, in-flight simulations are
// cancelled (they observe the context within a few thousand cycles) and
// finish in the cancelled state. The cache is persisted in either case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	wasAccepting := s.accepting
	s.accepting = false
	if wasAccepting && s.started {
		close(s.queue)
	}
	s.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	var drainErr error
	select {
	case <-waited:
	case <-ctx.Done():
		s.baseCancel()
		<-waited
		drainErr = ctx.Err()
	}
	s.baseCancel()

	if s.opts.CacheFile != "" {
		if err := s.cache.SaveFile(s.opts.CacheFile); err != nil {
			return err
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

// Submit validates spec and enqueues a job with no tenant attribution.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitWithTenant(spec, "")
}

// SubmitWithTenant validates spec and enqueues a job attributed to the
// named tenant (the gateway's X-PC-Tenant pass-through). The tenant
// label rides into the job view, the journal, the access log, and the
// per-tenant counters; it never changes result bytes.
func (s *Server) SubmitWithTenant(spec JobSpec, tenant string) (*Job, error) {
	cfg, err := spec.normalize(s.presets)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return nil, ErrDraining
	}
	job, err := s.jobs.Add(spec, cfg, tenant, func(job *Job) error {
		// Journal before enqueue: a crash between the two replays the job
		// on restart (at-least-once), never loses an accepted one.
		if s.journal != nil {
			if err := s.journal.submit(job.id, spec, tenant, 0); err != nil {
				return fmt.Errorf("service: journal: %w", err)
			}
		}
		select {
		case s.queue <- job:
			return nil
		default:
			if s.journal != nil {
				s.journal.finish(job.id, JobFailed)
			}
			return ErrQueueFull
		}
	})
	if err != nil {
		return nil, err
	}
	s.metrics.TenantJob(tenant)
	return job, nil
}

// List snapshots all jobs in submission order.
func (s *Server) List() []JobView { return s.jobs.List() }

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job end to end.
func (s *Server) runJob(job *Job) {
	timeout := s.opts.DefaultTimeout
	if job.spec.TimeoutMS > 0 {
		timeout = time.Duration(job.spec.TimeoutMS) * time.Millisecond
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	if !s.jobs.Begin(job, cancel) { // cancelled while queued
		return
	}
	// Intra-job cell parallelism: the width rides the context into
	// runSweep and into the experiment drivers' internal fan-outs; the
	// shared limiter keeps the total across all concurrent jobs bounded.
	ctx = parexec.WithLimit(ctx, s.opts.SweepParallelism)
	if s.sweepLim != nil {
		ctx = parexec.WithLimiter(ctx, s.sweepLim)
	}
	s.metrics.stages.Observe("queue", job.started.Sub(job.created).Seconds())

	payload, err := s.executeSafe(ctx, job)
	runDur := time.Since(job.started)
	s.metrics.stages.Observe("run", runDur.Seconds())

	switch {
	case err == nil:
		s.jobs.Finish(job, JobDone, payload, "")
	case isCancellation(err) && jobWasCancelled(job):
		s.jobs.Finish(job, JobCancelled, nil, "cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		s.jobs.Finish(job, JobFailed, nil, fmt.Sprintf("deadline exceeded after %s", runDur.Round(time.Millisecond)))
	case isCancellation(err):
		// Shutdown cancelled the base context.
		s.jobs.Finish(job, JobCancelled, nil, "cancelled by shutdown")
	case isBudgetExceeded(err):
		s.jobs.Finish(job, JobBudgetExceeded, nil, err.Error())
	default:
		s.jobs.Finish(job, JobFailed, nil, err.Error())
	}
}

// isBudgetExceeded reports whether err is the simulator's typed
// cycle-budget overrun — a property of the submitted work, not a
// service fault, so it gets its own terminal state.
func isBudgetExceeded(err error) bool {
	var be *sim.BudgetError
	return errors.As(err, &be)
}

// executeSafe runs execute behind a recover barrier: a panic anywhere
// in the compiler or simulator — reachable from untrusted program
// source — fails that one job with a typed message and increments
// pcserved_panics_total, instead of taking the daemon (and every other
// tenant's jobs) down with it.
func (s *Server) executeSafe(ctx context.Context, job *Job) (payload json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			log.Printf("service: job %s: recovered panic: %v\n%s", job.id, r, debug.Stack())
			err = fmt.Errorf("internal error: panic during execution: %v", r)
			payload = nil
		}
	}()
	if s.opts.ExecHook != nil {
		s.opts.ExecHook(job)
	}
	return s.execute(ctx, job)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func jobWasCancelled(job *Job) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.cancelled
}

// execute produces the job's result payload, consulting the cache first.
func (s *Server) execute(ctx context.Context, job *Job) (json.RawMessage, error) {
	switch {
	case job.spec.Experiment != "":
		return s.runExperiment(ctx, job)
	case job.spec.Cell != nil:
		return s.runCellJob(ctx, job)
	case job.spec.Sweep != nil:
		return s.runSweep(ctx, job)
	case job.spec.Program != nil:
		return s.runProgramJob(ctx, job)
	}
	return nil, errors.New("service: empty job spec")
}

// markHit flags the job as cache-served and attributes the hit to its
// tenant.
func (s *Server) markHit(job *Job) {
	job.SetHit(true)
	s.metrics.TenantHit(job.tenant)
}

// experimentResult is the payload of an experiment job.
type experimentResult struct {
	Experiment string `json:"experiment"`
	MachineSHA string `json:"machine_sha256"`
	Rows       any    `json:"rows"`
}

func (s *Server) runExperiment(ctx context.Context, job *Job) (json.RawMessage, error) {
	key, err := experimentKey(job.spec.Experiment, job.cfg, job.spec.Options)
	if err != nil {
		return nil, err
	}
	if payload, ok := s.cache.Get(key); ok {
		s.markHit(job)
		return payload, nil
	}
	e, ok := experiments.Lookup(job.spec.Experiment)
	if !ok {
		return nil, experiments.UnknownExperimentError(job.spec.Experiment)
	}
	rows, err := e.Run(&experiments.RunContext{Ctx: ctx, Cfg: job.cfg})
	if err != nil {
		return nil, err
	}
	msha, err := machineSHA(job.cfg)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(experimentResult{Experiment: e.Name, MachineSHA: msha, Rows: rows})
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, payload)
	return payload, nil
}

// CellResult is the payload of a single simulation cell (standalone cell
// jobs and each streamed cell of a sweep).
type CellResult struct {
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
	// IUs/FPUs describe the swept machine (sweep cells only).
	IUs        int                `json:"ius,omitempty"`
	FPUs       int                `json:"fpus,omitempty"`
	MachineSHA string             `json:"machine_sha256"`
	Cycles     int64              `json:"cycles"`
	Ops        int64              `json:"ops"`
	Threads    int                `json:"threads"`
	Util       map[string]float64 `json:"utilization"`
	WBRetries  int64              `json:"writeback_retries"`
	Trace      json.RawMessage    `json:"trace,omitempty"`
}

// runCell simulates one (bench, mode, cfg) cell and encodes its payload.
func (s *Server) runCell(ctx context.Context, benchName string, mode experiments.Mode, cfg *machine.Config, o SimOptions, ius, fpus int) (json.RawMessage, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	var opts []sim.Option
	if o.MaxCycles > 0 {
		opts = append(opts, sim.WithMaxCycles(o.MaxCycles))
	}
	var tracer *sim.JSONTracer
	if o.Trace {
		tracer = sim.NewJSONTracer(cfg)
		opts = append(opts, sim.WithObserver(tracer))
	}
	r, err := experiments.ExecuteCtx(ctx, benchName, mode, cfg, opts...)
	if err != nil {
		return nil, err
	}
	msha, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	out := CellResult{
		Bench: benchName, Mode: string(mode), IUs: ius, FPUs: fpus,
		MachineSHA: msha,
		Cycles:     r.Cycles, Ops: r.Result.Ops, Threads: len(r.Result.Threads),
		Util:      map[string]float64{},
		WBRetries: r.Result.WritebackRetries,
	}
	for k := 0; k < machine.NumUnitKinds; k++ {
		kind := machine.UnitKind(k)
		out.Util[kind.String()] = r.Utilization(kind)
	}
	if tracer != nil {
		var buf bytes.Buffer
		if err := tracer.Write(&buf); err != nil {
			return nil, err
		}
		out.Trace = buf.Bytes()
	}
	return json.Marshal(out)
}

func (s *Server) runCellJob(ctx context.Context, job *Job) (json.RawMessage, error) {
	mode, err := experiments.ParseMode(job.spec.Cell.Mode)
	if err != nil {
		return nil, err
	}
	key, err := cellKey(job.spec.Cell.Bench, mode, job.cfg, job.spec.Options)
	if err != nil {
		return nil, err
	}
	if payload, ok := s.cache.Get(key); ok {
		s.markHit(job)
		return payload, nil
	}
	payload, err := s.runCell(ctx, job.spec.Cell.Bench, mode, job.cfg, job.spec.Options, 0, 0)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, payload)
	return payload, nil
}

// sweepResult is the payload of a sweep job: the cells in stable grid
// order (bench-major, then IU, then FPU — the order they also stream).
type sweepResult struct {
	Sweep SweepSpec         `json:"sweep"`
	Cells []json.RawMessage `json:"cells"`
}

func (s *Server) runSweep(ctx context.Context, job *Job) (json.RawMessage, error) {
	sw := job.spec.Sweep
	cells := sw.Cells()
	job.SetTotal(len(cells))

	// Cells execute in parallel (width and shared limiter from ctx, set
	// in runJob), but results are merged in grid order: cache fills,
	// the payload's cells, and the NDJSON stream (job.appendCell) all happen in the
	// emit stage, which parexec.Stream runs strictly in submission order.
	// The payload and the streamed bytes are therefore identical to the
	// sequential loop's, and a mid-sweep cancellation still streams a
	// contiguous prefix. Only the cache's LRU recency order can differ
	// (parallel lookups touch entries in completion order). Each cell is
	// cached once, under its cellKey; the job is a cache hit when every
	// cell was.
	mode := experiments.Mode(sw.Mode)
	payloads := make([]json.RawMessage, 0, len(cells))
	type cellOut struct {
		key     string
		payload json.RawMessage
		hit     bool
	}
	allHit := true
	err := parexec.Stream(ctx, len(cells),
		func(ctx context.Context, i int) (cellOut, error) {
			c := cells[i]
			cfg := machine.Mix(c.IU, c.FPU)
			key, err := cellKey(c.Bench, mode, cfg, job.spec.Options)
			if err != nil {
				return cellOut{}, err
			}
			if payload, ok := s.cache.Get(key); ok {
				return cellOut{key: key, payload: payload, hit: true}, nil
			}
			payload, err := s.runCell(ctx, c.Bench, mode, cfg, job.spec.Options, c.IU, c.FPU)
			if err != nil {
				return cellOut{}, fmt.Errorf("sweep %s %diu %dfpu: %w", c.Bench, c.IU, c.FPU, err)
			}
			return cellOut{key: key, payload: payload}, nil
		},
		func(i int, out cellOut) error {
			if !out.hit {
				allHit = false
				s.cache.Put(out.key, out.payload)
			}
			payloads = append(payloads, out.payload)
			job.AppendCell(out.payload)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if allHit {
		s.markHit(job)
	}
	return MergeSweepPayload(sw, payloads)
}

// MergeSweepPayload reconstitutes a whole-sweep result payload from
// per-cell payloads in grid order. The fleet gateway uses it to merge a
// scattered sweep into bytes identical to a single backend's runSweep
// output (sw must be normalized).
func MergeSweepPayload(sw *SweepSpec, cells []json.RawMessage) (json.RawMessage, error) {
	return json.Marshal(sweepResult{Sweep: *sw, Cells: cells})
}

// gauges samples the live state for /metrics.
func (s *Server) gauges() Gauges {
	byState := s.jobs.Counts()
	s.mu.Lock()
	accepting := s.accepting
	depth := len(s.queue)
	s.mu.Unlock()
	hits, misses := s.cache.Stats()
	return Gauges{
		QueueDepth:     depth,
		Inflight:       byState[string(JobRunning)],
		Workers:        s.opts.Workers,
		JobsByState:    byState,
		CacheEntries:   s.cache.Len(),
		CacheBytes:     s.cache.Bytes(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: s.cache.Evictions(),
		Accepting:      accepting,
	}
}
