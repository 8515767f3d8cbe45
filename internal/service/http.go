package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"pcoup/internal/machine"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a job (202 + job view; streaming POST: 200 + NDJSON stream)
//	POST   /v1/programs         compile-and-run an untrusted source program (202 + job view; 422 on limit/syntax rejection)
//	GET    /v1/jobs             list held jobs: every queued and running one, the newest finished ones
//	GET    /v1/jobs/{id}        job status; includes result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream NDJSON: per-cell results as they finish, then {"state":...,"error":...,"cache_hit":true}
//	GET    /v1/cache/{key}      raw cached payload for a content key (404 on miss)
//	GET    /healthz             liveness: always 200 while the process serves, with load detail
//	GET    /readyz              readiness: 503 + Retry-After while draining
//	GET    /metrics             Prometheus text exposition
//
// A streaming POST is either POST sent with "Accept: application/x-ndjson":
// it answers 200 on the same connection, with the job ID in the X-PC-Job
// header (flushed as soon as the job is queued) and then exactly the
// bytes GET /v1/jobs/{id}/stream would send. Submission errors keep
// their codes (400, 413, 422, 503). The status line omits error and
// cache_hit when unset. Both routes are the JobTable's, shared with the
// fleet gateway.
//
// The table keeps only the newest finished jobs (JobTable.Retain). Once
// a finished job is dropped, GET, DELETE and stream on its ID answer
// exactly what an unknown ID answers (404), and its result stays under
// its content key in the cache. A stream already open on it completes.
// The result cache is bounded too: by default to DefaultCacheMaxBytes
// of payload (pcserved -cache-max-bytes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.jobs.Routes(mux, func(h http.HandlerFunc) http.HandlerFunc { return h },
		func(r *http.Request, spec JobSpec) (*Job, error) {
			return s.SubmitWithTenant(spec, tenantHeader(r))
		})
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// WriteJSON renders v with a stable, readable encoding (both daemons'
// JSON responses).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError renders err as an {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// maxTenantBytes caps the client-supplied X-PC-Tenant value.
const maxTenantBytes = 64

// tenantHeader reads the submitting tenant's name. The name is pure
// attribution (journal, metrics, views) — authentication happens at the
// gateway, which sets this header from the verified API key. The value
// is cut to maxTenantBytes on a rune boundary, so a hostile direct
// submitter cannot bloat journal records, and invalid UTF-8 is replaced,
// so the name is valid text wherever it is written.
func tenantHeader(r *http.Request) string {
	t := strings.ToValidUTF8(r.Header.Get("X-PC-Tenant"), "\uFFFD")
	if len(t) <= maxTenantBytes {
		return t
	}
	n := maxTenantBytes
	for !utf8.RuneStart(t[n]) {
		n--
	}
	return t[:n]
}

// ProgramRequest is the POST /v1/programs body: the program spec
// flattened to the top level plus the usual machine/options/timeout job
// fields. It is sugar for POST /v1/jobs with a "program" spec — both
// produce identical jobs, cache entries, and fleet routing keys.
type ProgramRequest struct {
	ProgramSpec
	Machine   *machine.Config `json:"machine,omitempty"`
	Preset    string          `json:"preset,omitempty"`
	Options   SimOptions      `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// JobSpec converts the request to the equivalent job spec.
func (pr *ProgramRequest) JobSpec() JobSpec {
	p := pr.ProgramSpec
	return JobSpec{
		Program: &p,
		Machine: pr.Machine, Preset: pr.Preset,
		Options: pr.Options, TimeoutMS: pr.TimeoutMS,
	}
}

// maxBodyBytes bounds a submission body. The largest acceptable spec
// is a source at the service's 64 KiB cap written entirely as \u00XX
// escapes (384 KiB) plus a maximal machine, well under 1 MiB.
const maxBodyBytes = 1 << 20

// SubmitFunc is a daemon's admission of a decoded spec for request r: a
// Server enqueues it, a fleet Gateway admits it for the request's
// tenant and dispatches it.
type SubmitFunc func(r *http.Request, spec JobSpec) (*Job, error)

// Routes registers the job routes both daemons share on mux, each
// handler wrapped by wrap: submission (POST /v1/jobs and /v1/programs,
// which hand the decoded spec to submit), then list, status, cancel and
// stream.
func (t *JobTable) Routes(mux *http.ServeMux, wrap func(http.HandlerFunc) http.HandlerFunc, submit SubmitFunc) {
	mux.HandleFunc("POST /v1/jobs", wrap(submitRoute(submit, func(spec *JobSpec) JobSpec { return *spec })))
	mux.HandleFunc("POST /v1/programs", wrap(submitRoute(submit, (*ProgramRequest).JobSpec)))
	mux.HandleFunc("GET /v1/jobs", wrap(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, t.List())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}", wrap(func(w http.ResponseWriter, r *http.Request) {
		if job, ok := t.jobFor(w, r); ok {
			WriteJSON(w, http.StatusOK, job.View(true))
		}
	}))
	mux.HandleFunc("DELETE /v1/jobs/{id}", wrap(func(w http.ResponseWriter, r *http.Request) {
		if job, err := t.Cancel(r.PathValue("id")); err != nil {
			WriteError(w, http.StatusNotFound, err)
		} else {
			WriteJSON(w, http.StatusOK, job.View(false))
		}
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", wrap(func(w http.ResponseWriter, r *http.Request) {
		if job, ok := t.jobFor(w, r); ok {
			streamJob(w, r, job)
		}
	}))
}

// submitRoute decodes a body of type B strictly (unknown fields are
// errors, the size is bounded by maxBodyBytes), converts it with spec,
// submits it, and writes the response: 202 with the job view, or 200
// with the job's NDJSON stream for a streaming POST. A refusal is 413
// for an oversized body, 429 + Retry-After for an error that carries
// one (a tenant quota), 503 while draining or full, 422 for a rejected
// program, and 400 otherwise.
func submitRoute[B any](submit SubmitFunc, spec func(*B) JobSpec) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body B
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteError(w, http.StatusRequestEntityTooLarge, err)
			} else {
				WriteError(w, http.StatusBadRequest, err)
			}
			return
		}
		job, err := submit(r, spec(&body))
		var retry interface{ RetryAfterSeconds() int }
		var pe *ProgramError
		switch {
		case err == nil && strings.Contains(r.Header.Get("Accept"), ndjson):
			w.Header().Set("X-PC-Job", job.id)
			streamJob(w, r, job)
		case err == nil:
			WriteJSON(w, http.StatusAccepted, job.View(false))
		case errors.As(err, &retry):
			w.Header().Set("Retry-After", strconv.Itoa(retry.RetryAfterSeconds()))
			WriteError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
			WriteError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &pe):
			WriteError(w, http.StatusUnprocessableEntity, err)
		default:
			WriteError(w, http.StatusBadRequest, err)
		}
	}
}

// jobFor resolves {id}, writing a 404 on miss.
func (t *JobTable) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := t.Get(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

// ndjson is the media type of job streams.
const ndjson = "application/x-ndjson"

// StreamStatus is the terminal line of a job's NDJSON stream. CacheHit
// is omitted when false: a fleet gateway's stream, which never reports
// a hit (its JobTable sets QuietHits), must stay byte-identical to a
// backend's cold stream.
type StreamStatus struct {
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	CacheHit bool     `json:"cache_hit,omitempty"`
}

// streamJob writes NDJSON: one line per completed sweep cell (in grid
// order), then the terminal StreamStatus line. Non-sweep jobs get their
// whole result as the single data line once done. The stream follows a
// live job until it reaches a terminal state or the client goes away;
// the first flush sends the headers even while the job is queued.
func streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", ndjson)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		job.mu.Lock()
		cells := job.cells[sent:]
		state := job.state
		result := job.result
		status := StreamStatus{State: state, Error: job.errMsg, CacheHit: job.hit && !job.quietHit}
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
			final, _ := json.Marshal(status)
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

// handleCacheGet serves the raw cached payload for a content key. The
// fleet gateway uses this as the peer-fill probe: before computing a
// cell it owns (or stole), it asks the cell's cache home whether the
// bytes already exist. Payloads are content-addressed, so serving them
// cross-node cannot change results. The probe decides with Peek, so a
// miss leaves the miss counter to the job that computes the cell, and
// serves with Get: a served payload is a genuine hit and refreshes LRU
// recency.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.cache.Peek(key)
	if ok {
		payload, ok = s.cache.Get(key)
	}
	if !ok {
		w.Header().Set("X-PC-Cache", "miss")
		WriteError(w, http.StatusNotFound, errors.New("cache: no entry for key"))
		return
	}
	w.Header().Set("X-PC-Cache", "hit")
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// Health is the /healthz response body. Liveness is distinct from
// readiness: a draining daemon is still alive (200 here) but not ready
// (503 on /readyz), so load balancers and the fleet gateway stop routing
// to it without a liveness-triggered restart. The load fields
// (queue depth, inflight) feed the fleet gateway's probes.
type Health struct {
	Status     string `json:"status"`
	Accepting  bool   `json:"accepting"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	Workers    int    `json:"workers"`
}

func (s *Server) health() Health {
	g := s.gauges()
	return Health{
		Status:     "ok",
		Accepting:  g.Accepting,
		QueueDepth: g.QueueDepth,
		Inflight:   g.Inflight,
		Workers:    g.Workers,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.health())
}

// handleReadyz reports whether the daemon accepts new jobs. During a
// drain it returns 503 with Retry-After so probes eject the backend and
// clients back off until the replacement process is up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if !h.Accepting {
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ready"
	WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, s.gauges())
}
