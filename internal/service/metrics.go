package service

import (
	"io"

	"pcoup/internal/obs"
)

// latencyBuckets are the histogram upper bounds, in seconds. Simulation
// jobs span milliseconds (cached) to minutes (full sweeps), so the
// buckets cover five decades.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// maxTenantLabels bounds the distinct tenant label values retained. The
// tenant set is normally bounded by the gateway's -tenants file; because
// the header is client-supplied, overflow folds into "_other".
const maxTenantLabels = 256

// Metrics is the daemon's counters and histograms. Gauges that reflect
// live structures (queue depth, jobs by state, cache size) are sampled
// at render time by the server rather than stored here.
type Metrics struct {
	jobs             *obs.CounterVec   // submissions and state transitions
	stages           *obs.HistogramVec // per-stage latency
	journalRecovered *obs.Counter
	retriesExhausted *obs.Counter
	panics           *obs.Counter
	tenantJobs       *obs.CounterVec
	tenantHits       *obs.CounterVec
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobs:             obs.NewCounterVec("pcserved_jobs_total", "Job state transitions since start.", "state", 0),
		stages:           obs.NewHistogramVec("pcserved_stage_latency_seconds", "Per-stage job latency.", "stage", latencyBuckets),
		journalRecovered: obs.NewCounter("pcserved_journal_recovered_total", "Jobs resubmitted from the write-ahead journal after a restart."),
		retriesExhausted: obs.NewCounter("pcserved_retry_budget_exhausted_total", "Recovered jobs failed for exceeding the retry budget."),
		panics:           obs.NewCounter("pcserved_panics_total", "Panics recovered by the worker execution barrier (each failed one job, never the daemon)."),
		tenantJobs:       obs.NewCounterVec("pcserved_tenant_jobs_total", "Submissions per tenant.", "tenant", maxTenantLabels),
		tenantHits:       obs.NewCounterVec("pcserved_tenant_cache_hits_total", "Whole-job cache hits per tenant.", "tenant", maxTenantLabels),
	}
}

// TenantJob counts one submission attributed to a tenant. Anonymous
// submissions (empty tenant) are not counted — pcserved_jobs_total
// already covers the aggregate.
func (m *Metrics) TenantJob(tenant string) {
	if tenant != "" {
		m.tenantJobs.Inc(tenant)
	}
}

// TenantHit counts one whole-job cache hit attributed to a tenant.
func (m *Metrics) TenantHit(tenant string) {
	if tenant != "" {
		m.tenantHits.Inc(tenant)
	}
}

// Gauges is the live state sampled by the server at scrape time.
type Gauges struct {
	QueueDepth     int
	Inflight       int // jobs currently running
	Workers        int
	JobsByState    map[string]int
	CacheEntries   int
	CacheBytes     int64
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	Accepting      bool
}

// WriteText renders everything in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, g Gauges) {
	m.jobs.Write(w)
	obs.Gauge(w, "pcserved_jobs_current", "Jobs currently in each state.").Map("state", g.JobsByState)
	obs.Gauge(w, "pcserved_queue_depth", "Jobs waiting for a worker.").Int(int64(g.QueueDepth))
	obs.Gauge(w, "pcserved_inflight", "Jobs currently executing.").Int(int64(g.Inflight))
	obs.Gauge(w, "pcserved_workers", "Size of the worker pool.").Int(int64(g.Workers))
	obs.Gauge(w, "pcserved_accepting", "Whether new jobs are accepted (0 during drain).").Bool(g.Accepting)
	m.journalRecovered.Write(w)
	m.retriesExhausted.Write(w)
	m.panics.Write(w)
	obs.SampledCounter(w, "pcserved_cache_hits_total", "Result cache hits.").Int(g.CacheHits)
	obs.SampledCounter(w, "pcserved_cache_misses_total", "Result cache misses.").Int(g.CacheMisses)
	obs.Gauge(w, "pcserved_cache_entries", "Result cache entries resident.").Int(int64(g.CacheEntries))
	obs.Gauge(w, "pcserved_cache_bytes", "Result cache payload bytes resident.").Int(g.CacheBytes)
	obs.SampledCounter(w, "pcserved_cache_evictions_total", "Result cache entries evicted by the LRU bounds.").Int(g.CacheEvictions)
	if total := g.CacheHits + g.CacheMisses; total > 0 {
		obs.Gauge(w, "pcserved_cache_hit_ratio", "Hits over lookups since start.").Float(float64(g.CacheHits) / float64(total))
	}
	m.tenantJobs.Write(w)
	m.tenantHits.Write(w)
	m.stages.Write(w)
}
