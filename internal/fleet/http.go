package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// Handler returns the gateway's HTTP API — the same surface as one
// pcserved, so pcq and every other client work unchanged:
//
//	POST   /v1/jobs             submit a job (202 + job view)
//	POST   /v1/programs         compile-and-run an untrusted source program (202; 422 on rejection)
//	GET    /v1/jobs             list gateway jobs
//	GET    /v1/jobs/{id}        job status; includes result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream NDJSON: per-cell results as they finish
//	GET    /healthz             liveness: always 200, with backend summary
//	GET    /readyz              readiness: 503 while draining or no backend is healthy
//	GET    /metrics             Prometheus text exposition
//
// The four GET/DELETE job routes are the shared service.JobTable's,
// served by the same code as pcserved's. The gateway answers pcserved's
// streaming POST (Accept: application/x-ndjson) with the plain 202. Its
// jobs are quiet about hits: the stream's status line never carries
// cache_hit, so it stays byte-identical to a cold backend's, while the
// job view reports it.
//
// When the gateway runs with a tenant file, every job route requires a
// valid API key (Authorization: Bearer <key> or X-PC-Tenant-Key) and
// answers 401 otherwise. /healthz, /readyz and /metrics stay open —
// probes and scrapers don't carry tenant identity.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.withTenant(g.handleSubmit))
	mux.HandleFunc("POST /v1/programs", g.withTenant(g.handleProgram))
	g.jobs.Routes(mux, g.withTenant)
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

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.submitAndRespond(w, r, spec)
}

// handleProgram accepts the flattened POST /v1/programs body (the same
// shape a single pcserved accepts) and submits it as a program job.
func (g *Gateway) handleProgram(w http.ResponseWriter, r *http.Request) {
	var req service.ProgramRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.submitAndRespond(w, r, req.JobSpec())
}

// submitAndRespond runs SubmitAs for the request's tenant and writes
// the submission response, mirroring a single backend's status mapping
// (plus the gateway-only 429 for quota rejections).
func (g *Gateway) submitAndRespond(w http.ResponseWriter, r *http.Request, spec service.JobSpec) {
	ten := tenant.FromContext(r.Context())
	if ten == nil {
		ten = g.tenants.Default()
	}
	job, err := g.SubmitAs(spec, ten)
	var qe *tenant.QuotaError
	var pe *service.ProgramError
	switch {
	case err == nil:
		service.WriteJSON(w, http.StatusAccepted, job.View(false))
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", strconv.Itoa(qe.RetryAfterSeconds()))
		service.WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		service.WriteError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &pe):
		service.WriteError(w, http.StatusUnprocessableEntity, err)
	default:
		service.WriteError(w, http.StatusBadRequest, err)
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
