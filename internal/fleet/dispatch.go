package fleet

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// permanentError marks a dispatch failure that would recur on every
// backend (a deterministic simulation error, a rejected spec): failover
// must not retry it.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// budgetExceededError marks a backend job that finished in the
// budget_exceeded state (the simulation hit its cycle budget). It is
// permanent — every backend would run out identically — and the gateway
// job mirrors the backend's terminal state instead of reporting failed.
type budgetExceededError struct{ msg string }

func (e budgetExceededError) Error() string { return e.msg }

// runJob executes one gateway job end to end for tenant ten, which
// holds a reservation of cells queued cells for it.
func (g *Gateway) runJob(job *service.Job, ten *tenant.Tenant, cells int) {
	ctx, cancel := context.WithCancel(g.baseCtx)
	defer cancel()
	if !g.jobs.Begin(job, cancel) {
		// Cancelled while queued: nothing will dispatch the reservation.
		ten.SubQueued(cells)
		return
	}

	var payload json.RawMessage
	var err error
	if job.Spec().Sweep != nil {
		payload, err = g.runSweepJob(ctx, job, ten)
	} else {
		payload, err = g.runUnitJob(ctx, job, ten)
	}

	var state service.JobState
	var errMsg string
	var be budgetExceededError
	switch {
	case err == nil:
		state = service.JobDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		state = service.JobCancelled
		errMsg = "cancelled"
	case errors.As(err, &be):
		state = service.JobBudgetExceeded
		errMsg = err.Error()
	default:
		state = service.JobFailed
		errMsg = err.Error()
	}
	g.jobs.Finish(job, state, payload, errMsg)
}

// runSweepJob scatters the sweep's cells into the tenant-fair dispatch
// queues (each cell at its content key's ring owner) and gathers the
// results back in grid order, so the merged payload and the NDJSON
// stream are byte-identical to a single backend's.
func (g *Gateway) runSweepJob(ctx context.Context, job *service.Job, ten *tenant.Tenant) (json.RawMessage, error) {
	spec := job.Spec()
	sw := spec.Sweep
	cells := sw.Cells()
	job.SetTotal(len(cells))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered to len(cells): workers never block delivering, even if
	// this consumer has already bailed.
	resCh := make(chan taskResult, len(cells))
	tasks := make([]*task, 0, len(cells))
	for i, c := range cells {
		specJSON, err := json.Marshal(service.JobSpec{
			Sweep:     sw.SingleCellSweep(c),
			Options:   spec.Options,
			TimeoutMS: spec.TimeoutMS,
		})
		if err != nil {
			ten.SubQueued(len(cells)) // nothing was enqueued
			return nil, err
		}
		key, err := service.SweepCellContentKey(c, sw.Mode, spec.Options)
		if err != nil {
			ten.SubQueued(len(cells))
			return nil, err
		}
		tasks = append(tasks, &task{
			ctx: ctx, ten: ten, key: key, content: true,
			specJSON: specJSON, index: i,
			owner: g.pool.ownerURL(key), resCh: resCh,
		})
	}
	g.disp.enqueue(tasks)

	// Single consumer: exactly len(cells) results arrive (cancelled
	// tasks deliver their context error), so every queued cell is
	// accounted for before the job finishes.
	results := make([]json.RawMessage, len(cells))
	allHit := true
	nextEmit := 0
	var firstErr error
	for done := 0; done < len(cells); done++ {
		res := <-resCh
		if res.err != nil {
			if firstErr == nil {
				c := cells[res.index]
				firstErr = fmt.Errorf("sweep %s %diu %dfpu: %w", c.Bench, c.IU, c.FPU, res.err)
				cancel() // abandon the remaining cells
			}
			continue
		}
		results[res.index] = res.payload
		if !res.hit {
			allHit = false
		}
		for nextEmit < len(results) && results[nextEmit] != nil {
			job.AppendCell(results[nextEmit])
			nextEmit++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	job.SetHit(allHit)
	return service.MergeSweepPayload(sw, results)
}

// runUnitJob forwards a whole cell/experiment job through the dispatch
// queue of its content-key owner.
func (g *Gateway) runUnitJob(ctx context.Context, job *service.Job, ten *tenant.Tenant) (json.RawMessage, error) {
	spec := job.Spec()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		ten.SubQueued(1)
		return nil, err
	}
	key, content := routeKey(&spec)
	resCh := make(chan taskResult, 1)
	g.disp.enqueue([]*task{{
		ctx: ctx, ten: ten, key: key, content: content,
		specJSON: specJSON, owner: g.pool.ownerURL(key), resCh: resCh,
	}})
	res := <-resCh
	if res.err != nil {
		return nil, res.err
	}
	job.SetHit(res.hit)
	return res.payload, nil
}

// worker drains one backend's dispatch queue until the dispatcher
// closes. The queue hands it cache-affine work first and stolen chunks
// from saturated peers when its own queue runs dry.
func (g *Gateway) worker(b *Backend) {
	defer g.workerWg.Done()
	for {
		t := g.disp.next(b.URL)
		if t == nil {
			return
		}
		res := taskResult{index: t.index}
		if res.err = t.ctx.Err(); res.err == nil {
			res.payload, res.hit, res.err = g.dispatchTask(t, b)
		}
		// Release the tenant slot before delivering, so a finished job
		// leaves no inflight count behind. A cell cancelled while queued
		// is delivered without dispatching, so the job's gather loop
		// still sees every cell.
		g.disp.complete(t)
		t.resCh <- res
	}
}

// dispatchTask executes one queued task from backend b's worker:
// peer-fill cache probes first, then the failing-over dispatch loop.
func (g *Gateway) dispatchTask(t *task, b *Backend) (json.RawMessage, bool, error) {
	if payload, ok := g.peerFill(t, b); ok {
		return payload, true, nil
	}
	return g.dispatch(t, b)
}

// peerFill tries to serve a content-keyed task straight from a backend
// cache before computing anything: first the worker's own cache, then
// that of the next healthy node in the key's ring order after the
// worker. For a task served by its owner's queue, that is the owner and
// then its ring successor, where failover would have left a copy. For a
// stolen task it is the thief, then the owner (the first healthy node at
// enqueue), so rebalancing warm work does not recompute it. Results are
// content-addressed and deterministic, so the probed bytes are
// identical to a recompute.
func (g *Gateway) peerFill(t *task, b *Backend) (json.RawMessage, bool) {
	if !t.content {
		return nil, false
	}
	if payload, ok := g.cacheProbe(t.ctx, b, t.key); ok {
		if b.URL == t.owner {
			g.metrics.Affinity(true)
		} else {
			g.metrics.peerFillHits.Inc()
		}
		return payload, true
	}
	if peer := g.pool.next(t.key, map[string]bool{b.URL: true}); peer != nil {
		if payload, ok := g.cacheProbe(t.ctx, peer, t.key); ok {
			g.metrics.peerFillHits.Inc()
			return payload, true
		}
	}
	return nil, false
}

// cacheProbe GETs one backend's cache entry for key; any failure is a
// miss (the task just computes normally).
func (g *Gateway) cacheProbe(ctx context.Context, b *Backend, key string) (json.RawMessage, bool) {
	if !b.Healthy() {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, "GET", b.URL+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := g.probe.Do(req)
	if err != nil {
		return nil, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return json.RawMessage(data), true
}

// routeKey maps a non-sweep spec to its routing key: the result's
// content address when the gateway can compute it (so the job lands
// where its cache entry lives, reported true), else a hash of the
// canonical spec (false: not probeable against backend caches).
func routeKey(spec *service.JobSpec) (string, bool) {
	var cfg *machine.Config
	resolvable := true
	switch {
	case spec.Machine != nil:
		cfg = spec.Machine
	case spec.Preset == "" || spec.Preset == "baseline":
		cfg = nil // backends default to baseline
	default:
		resolvable = false // foreign preset: only the backend can resolve it
	}
	if resolvable {
		switch {
		case spec.Cell != nil:
			if k, err := service.CellContentKey(spec.Cell.Bench, spec.Cell.Mode, cfg, spec.Options); err == nil {
				return k, true
			}
		case spec.Experiment != "":
			if k, err := service.ExperimentContentKey(spec.Experiment, cfg, spec.Options); err == nil {
				return k, true
			}
		case spec.Program != nil:
			if k, err := service.ProgramContentKey(spec.Program, cfg, spec.Options); err == nil {
				return k, true
			}
		}
	}
	data, _ := json.Marshal(spec)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), false
}

// dispatch runs one task against the fleet: the worker's own backend
// first (it is the queue owner or the thief — either way the planned
// placement), then failover to the next healthy ring node not yet tried,
// with backoff across the retry budget.
func (g *Gateway) dispatch(t *task, worker *Backend) (json.RawMessage, bool, error) {
	ctx := t.ctx
	tried := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt < g.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			g.metrics.failovers.Inc()
			select {
			case <-time.After(service.Backoff(g.opts.RetryBackoff, 30*time.Second, attempt)):
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		backend := worker
		if attempt > 0 || !worker.Healthy() {
			backend = g.pool.next(t.key, tried)
			if backend == nil && len(tried) > 0 {
				// Every untried backend is down; widen the net and let the
				// prober re-admit whatever recovers.
				tried = map[string]bool{}
				backend = g.pool.next(t.key, tried)
			}
			if backend == nil {
				lastErr = ErrNoBackends
				continue
			}
		}
		payload, hit, err := g.attempt(ctx, backend, t)
		switch {
		case err == nil:
			g.metrics.Affinity(hit)
			return payload, hit, nil
		case ctx.Err() != nil:
			return nil, false, ctx.Err()
		default:
			var perm permanentError
			if errors.As(err, &perm) {
				return nil, false, perm.err
			}
			lastErr = err
			tried[backend.URL] = true
		}
	}
	return nil, false, fmt.Errorf("after %d attempts: %w", g.opts.RetryBudget, lastErr)
}

// attempt runs a task on one backend as a single exchange: a streaming
// POST whose response names the backend job in X-PC-Job and then carries
// its NDJSON stream, down to the status line that reports the cache hit.
// The tenant's name rides along in X-PC-Tenant so backend journals,
// access logs, and per-tenant counters attribute the work. On
// cancellation after submission the backend job is cancelled
// best-effort.
func (g *Gateway) attempt(ctx context.Context, b *Backend, t *task) (json.RawMessage, bool, error) {
	b.acquire()
	defer b.release()
	g.metrics.dispatched.Inc(b.URL)

	req, err := http.NewRequestWithContext(ctx, "POST", b.URL+"/v1/jobs", bytes.NewReader(t.specJSON))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	if t.ten != nil {
		req.Header.Set("X-PC-Tenant", t.ten.Name())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			g.pool.markDown(b, err)
		}
		return nil, false, err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		// The backend rejected the spec or the program content itself —
		// every backend would, so failover is pointless.
		return nil, false, permanentError{fmt.Errorf("backend %s: %s", b.URL, readError(resp))}
	default:
		// 503 (draining, queue full) and 5xx: transient, try elsewhere.
		return nil, false, fmt.Errorf("backend %s: %s", b.URL, readError(resp))
	}
	remoteID := resp.Header.Get("X-PC-Job")
	defer func() {
		if ctx.Err() != nil && remoteID != "" {
			go g.cancelRemote(b, remoteID)
		}
	}()

	lines, status, err := readStream(resp.Body)
	if err != nil {
		// A dead mid-job stream means the backend is gone — unless we
		// cancelled the request ourselves (job cancel, a failed sweep
		// abandoning its cells, shutdown), which says nothing about the
		// backend's health.
		if ctx.Err() == nil {
			g.pool.markDown(b, err)
		}
		return nil, false, err
	}
	switch status.State {
	case service.JobDone:
	case service.JobFailed:
		// Deterministic failure: every backend would fail identically.
		return nil, false, permanentError{fmt.Errorf("backend %s: %s", b.URL, status.Error)}
	case service.JobBudgetExceeded:
		// Equally deterministic, but surfaced as its own terminal state.
		return nil, false, permanentError{budgetExceededError{status.Error}}
	default: // cancelled remotely (backend draining): retry elsewhere
		return nil, false, fmt.Errorf("backend %s: job %s", b.URL, status.State)
	}
	if len(lines) != 1 {
		return nil, false, fmt.Errorf("backend %s: %d data lines, want 1", b.URL, len(lines))
	}
	return lines[0], status.CacheHit, nil
}

// readStream reads a backend job's NDJSON stream to EOF: data lines,
// then the terminal status line.
func readStream(body io.Reader) (lines []json.RawMessage, status service.StreamStatus, err error) {
	rd := bufio.NewReader(body)
	for {
		line, err := rd.ReadBytes('\n')
		line = bytes.TrimSuffix(line, []byte("\n"))
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, status, err
		}
	}
	if len(lines) == 0 {
		return nil, status, errors.New("stream: empty")
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &status); err != nil || status.State == "" {
		return nil, status, errors.New("stream: truncated (no status line)")
	}
	return lines[:len(lines)-1], status, nil
}

// cancelRemote best-effort DELETEs a backend job whose dispatch was
// cancelled (job cancel, a failed sweep abandoning its cells, shutdown).
func (g *Gateway) cancelRemote(b *Backend, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "DELETE", b.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	drainClose(resp.Body)
}

// drainClose reads what is left of a small response before closing it,
// so the transport keeps the connection alive for the next request.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4<<10))
	body.Close()
}

// readError renders a non-2xx response body.
func readError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, eb.Error)
	}
	return fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(data))
}
