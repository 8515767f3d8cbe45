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
// The gateway answers pcserved's streaming POST (Accept:
// application/x-ndjson) with the plain 202; its stream's status line
// never carries cache_hit, so it stays byte-identical to a cold
// backend's.
//
// When the gateway runs with a tenant file, every job route requires a
// valid API key (Authorization: Bearer <key> or X-PC-Tenant-Key) and
// answers 401 otherwise. /healthz, /readyz and /metrics stay open —
// probes and scrapers don't carry tenant identity.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.withTenant(g.handleSubmit))
	mux.HandleFunc("POST /v1/programs", g.withTenant(g.handleProgram))
	mux.HandleFunc("GET /v1/jobs", g.withTenant(g.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", g.withTenant(g.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.withTenant(g.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", g.withTenant(g.handleStream))
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
			writeHTTPError(w, http.StatusUnauthorized, err)
			return
		}
		h(w, r.WithContext(tenant.NewContext(r.Context(), ten)))
	}
}

// writeJSON mirrors the service daemon's encoding so job views render
// identically through either front door.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeHTTPError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeHTTPError(w, http.StatusBadRequest, err)
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
		writeHTTPError(w, http.StatusBadRequest, err)
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
		writeJSON(w, http.StatusAccepted, job.view(false))
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", strconv.Itoa(qe.RetryAfterSeconds()))
		writeHTTPError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeHTTPError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &pe):
		writeHTTPError(w, http.StatusUnprocessableEntity, err)
	default:
		writeHTTPError(w, http.StatusBadRequest, err)
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.List())
}

func (g *Gateway) jobFor(w http.ResponseWriter, r *http.Request) (*fleetJob, bool) {
	job, err := g.Get(r.PathValue("id"))
	if err != nil {
		writeHTTPError(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := g.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, job.view(true))
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := g.Cancel(r.PathValue("id"))
	if err != nil {
		writeHTTPError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.view(false))
}

// handleStream emits the same NDJSON a single backend would: one line
// per sweep cell in grid order, then the terminal status line. Because
// the dispatcher gathers cells back into grid order before appending,
// the stream through the gateway is byte-identical to a single
// backend's stream for the same sweep.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := g.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		job.mu.Lock()
		cells := job.cells[sent:]
		state := job.state
		result := job.result
		errMsg := job.errMsg
		updated := job.updated
		job.mu.Unlock()

		for _, cell := range cells {
			w.Write(cell)
			w.Write([]byte("\n"))
			sent++
		}
		if state.Terminal() {
			if sent == 0 && len(result) > 0 {
				w.Write(result)
				w.Write([]byte("\n"))
			}
			final, _ := json.Marshal(service.StreamStatus{State: state, Error: errMsg})
			w.Write(final)
			w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
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
	writeJSON(w, http.StatusOK, g.health())
}

// handleReadyz is readiness: 503 while draining or while no backend is
// admitted (the gateway cannot place work anywhere).
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := g.health()
	switch {
	case !h.Accepting:
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, h)
	case h.BackendsHealthy == 0:
		h.Status = "no healthy backends"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, h)
	default:
		h.Status = "ready"
		writeJSON(w, http.StatusOK, h)
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.writeMetrics(w)
}
