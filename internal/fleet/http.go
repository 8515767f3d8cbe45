package fleet

import (
	"net/http"

	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// Handler returns the gateway's HTTP API — the same surface as one
// pcserved, so pcq and every other client work unchanged:
//
//	POST   /v1/jobs             submit a job (202 + job view; streaming POST: 200 + NDJSON stream)
//	POST   /v1/programs         compile-and-run an untrusted source program (202; 422 on rejection)
//	GET    /v1/jobs             list held gateway jobs: every queued and running one, the newest finished ones
//	GET    /v1/jobs/{id}        job status; includes result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream NDJSON: per-cell results as they finish
//	GET    /healthz             liveness: always 200, with backend summary
//	GET    /readyz              readiness: 503 while draining or no backend is healthy
//	GET    /metrics             Prometheus text exposition
//
// The six job routes are the shared service.JobTable's, served by the
// same code as pcserved's, submission included; only the gateway can
// refuse a submission with 429 (a tenant quota). Its jobs are quiet
// about hits: the stream's status line never carries cache_hit, so it
// stays byte-identical to a cold backend's, while the job view reports
// it.
//
// When the gateway runs with a tenant file, every job route requires a
// valid API key (Authorization: Bearer <key> or X-PC-Tenant-Key) and
// answers 401 otherwise. /healthz, /readyz and /metrics stay open —
// probes and scrapers don't carry tenant identity.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.jobs.Routes(mux, g.withTenant, func(r *http.Request, spec service.JobSpec) (*service.Job, error) {
		return g.SubmitAs(spec, tenant.FromContext(r.Context()))
	})
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// withTenant authenticates the request against the tenant registry and
// stashes the resolved tenant in the request context. In open mode
// (no tenant file) every request resolves to the unlimited default.
func (g *Gateway) withTenant(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ten, err := g.tenants.FromRequest(r)
		if err != nil {
			service.WriteError(w, http.StatusUnauthorized, err)
			return
		}
		h(w, r.WithContext(tenant.NewContext(r.Context(), ten)))
	}
}

// fleetHealth is the gateway's /healthz and /readyz body.
type fleetHealth struct {
	Status          string          `json:"status"`
	Accepting       bool            `json:"accepting"`
	BackendsHealthy int             `json:"backends_healthy"`
	BackendsTotal   int             `json:"backends_total"`
	Backends        []backendHealth `json:"backends"`
}

type backendHealth struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Inflight   int    `json:"inflight"`
	QueueDepth int    `json:"queue_depth"`
	LastError  string `json:"last_error,omitempty"`
}

func (g *Gateway) health() fleetHealth {
	g.mu.Lock()
	accepting := g.accepting
	g.mu.Unlock()
	h := fleetHealth{Status: "ok", Accepting: accepting}
	for _, b := range g.pool.all() {
		b.mu.Lock()
		bh := backendHealth{
			URL: b.URL, Healthy: b.healthy, Inflight: b.inflight,
			QueueDepth: b.load.QueueDepth, LastError: b.lastErr,
		}
		b.mu.Unlock()
		h.BackendsTotal++
		if bh.Healthy {
			h.BackendsHealthy++
		}
		h.Backends = append(h.Backends, bh)
	}
	return h
}

// handleHealthz is liveness: the gateway process is up, with a backend
// summary for operators. Always 200.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, g.health())
}

// handleReadyz is readiness: 503 while draining or while no backend is
// admitted (the gateway cannot place work anywhere).
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := g.health()
	switch {
	case !h.Accepting:
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, h)
	case h.BackendsHealthy == 0:
		h.Status = "no healthy backends"
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, h)
	default:
		h.Status = "ready"
		service.WriteJSON(w, http.StatusOK, h)
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.writeMetrics(w)
}
