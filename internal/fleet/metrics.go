package fleet

import (
	"io"

	"pcoup/internal/obs"
	"pcoup/internal/tenant"
)

// Metrics is the gateway's counters. Live gauges (backend health,
// inflight, tenant queues) are read from the gateway at scrape time.
//
// Label cardinality: every labelled family is bounded by configuration —
// {backend} by the -backends list, {tenant} by the -tenants file (open
// mode has exactly one), {class} by the two priority classes, {state} by
// the job lifecycle. Nothing request-derived ever becomes a label.
type Metrics struct {
	jobs            *obs.CounterVec // gateway job state transitions
	dispatched      *obs.CounterVec // cells dispatched per backend URL
	affinityLookups *obs.Counter    // cells routed by content key
	affinityHits    *obs.Counter    // ... that the routed backend served from cache
	spills          *obs.Counter
	failovers       *obs.Counter
	probeFailures   *obs.Counter
	ejections       *obs.Counter
	readmissions    *obs.Counter
	steals          *obs.Counter
	peerFillHits    *obs.Counter
	shed            *obs.CounterVec // admission rejections by class
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobs:            obs.NewCounterVec("pcfleet_jobs_total", "Gateway job state transitions since start.", "state", 0),
		dispatched:      obs.NewCounterVec("pcfleet_cells_dispatched_total", "Cells dispatched per backend.", "backend", 0),
		affinityLookups: obs.NewCounter("pcfleet_affinity_lookups_total", "Content-key-routed dispatches."),
		affinityHits:    obs.NewCounter("pcfleet_affinity_hits_total", "Dispatches the routed backend served from its cache."),
		spills:          obs.NewCounter("pcfleet_spills_total", "Bounded-load spills past a saturated ring owner."),
		failovers:       obs.NewCounter("pcfleet_failovers_total", "Attempts re-routed after a backend failure."),
		probeFailures:   obs.NewCounter("pcfleet_probe_failures_total", "Failed backend health probes."),
		ejections:       obs.NewCounter("pcfleet_backend_ejections_total", "Backends ejected after failed probes or dispatch errors."),
		readmissions:    obs.NewCounter("pcfleet_backend_readmissions_total", "Ejected backends re-admitted by a passing probe."),
		steals:          obs.NewCounter("pcfleet_steals_total", "Queued cells moved from a saturated backend queue to an idle one."),
		peerFillHits:    obs.NewCounter("pcfleet_peer_fill_hits_total", "Cells served by a peer backend's cache instead of recomputing."),
		shed:            obs.NewCounterVec("pcfleet_shed_total", "Admission rejections (quota, rate limit, high watermark) by class.", "class", 0),
	}
}

// Affinity records one content-key-routed dispatch and whether the
// backend reported serving it from its cache (the affinity payoff).
func (m *Metrics) Affinity(hit bool) {
	m.affinityLookups.Inc()
	if hit {
		m.affinityHits.Inc()
	}
}

// AffinityStats returns lifetime affinity lookups and hits. Hits are
// read first, so they never exceed the lookups returned.
func (m *Metrics) AffinityStats() (lookups, hits int64) {
	hits = m.affinityHits.Value()
	return m.affinityLookups.Value(), hits
}

// Failovers returns the lifetime failover count.
func (m *Metrics) Failovers() int64 { return m.failovers.Value() }

// HedgeStats returns (0, 0): the gateway does not hedge stragglers.
// It is kept because the frozen benchmark module (benchmark/) calls it
// for its fleet.hedges_fired metric.
func (m *Metrics) HedgeStats() (fired, won int64) { return 0, 0 }

// Steals returns the lifetime stolen-cell count.
func (m *Metrics) Steals() int64 { return m.steals.Value() }

// PeerFillHits returns the lifetime peer-fill hit count.
func (m *Metrics) PeerFillHits() int64 { return m.peerFillHits.Value() }

// ShedTotal returns the lifetime rejection count for a class label.
func (m *Metrics) ShedTotal(class string) int64 { return m.shed.Value(class) }

// writeMetrics renders the gateway's counters and its live state in the
// Prometheus text exposition format.
func (g *Gateway) writeMetrics(w io.Writer) {
	m := g.metrics
	g.mu.Lock()
	byState := map[string]int{}
	for _, j := range g.order {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	accepting := g.accepting
	g.mu.Unlock()

	m.jobs.Write(w)
	obs.Gauge(w, "pcfleet_jobs_current", "Gateway jobs currently in each state.").Map("state", byState)
	obs.Gauge(w, "pcfleet_accepting", "Whether new jobs are accepted (0 during drain).").Bool(accepting)

	backends := g.pool.all()
	perBackend := func(name, help string, value func(b *Backend) int) {
		s := obs.Gauge(w, name, help)
		for _, b := range backends {
			b.mu.Lock()
			v := value(b)
			b.mu.Unlock()
			s.Int(int64(v), "backend", b.URL)
		}
	}
	healthy := 0
	perBackend("pcfleet_backend_up", "Whether the backend is admitted (1) or ejected (0).", func(b *Backend) int {
		if !b.healthy {
			return 0
		}
		healthy++
		return 1
	})
	obs.Gauge(w, "pcfleet_backends_healthy", "Admitted backends.").Int(int64(healthy))
	perBackend("pcfleet_backend_inflight", "Gateway dispatches in flight per backend.", func(b *Backend) int { return b.inflight })
	perBackend("pcfleet_backend_queue_depth", "Backend-reported queued jobs (last probe).", func(b *Backend) int { return b.load.QueueDepth })
	obs.Gauge(w, "pcfleet_dispatch_queue_depth", "Gateway-side queued cells per backend dispatch queue.").Map("backend", g.disp.depths())

	perTenant := func(name, help string, value func(t *tenant.Tenant) int) {
		s := obs.Gauge(w, name, help)
		for _, t := range g.tenants.All() {
			s.Int(int64(value(t)), "tenant", t.Name(), "class", string(t.Class()))
		}
	}
	perTenant("pcfleet_tenant_queued_cells", "Admitted, undispatched cells per tenant.", (*tenant.Tenant).Queued)
	perTenant("pcfleet_tenant_inflight_cells", "Dispatched, unfinished cells per tenant.", (*tenant.Tenant).Inflight)
	perTenant("pcfleet_tenant_weight", "Configured DRR weight per tenant.", (*tenant.Tenant).Weight)

	m.dispatched.Write(w)
	m.affinityLookups.Write(w)
	m.affinityHits.Write(w)
	if lookups, hits := m.AffinityStats(); lookups > 0 {
		obs.Gauge(w, "pcfleet_affinity_hit_ratio", "Affinity hits over lookups since start.").Float(float64(hits) / float64(lookups))
	}
	for _, c := range []*obs.Counter{m.spills, m.failovers,
		m.probeFailures, m.ejections, m.readmissions, m.steals, m.peerFillHits} {
		c.Write(w)
	}
	m.shed.Write(w)
}
