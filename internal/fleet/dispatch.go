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

// runJob executes one gateway job end to end.
func (g *Gateway) runJob(job *fleetJob) {
	job.mu.Lock()
	if job.state.Terminal() { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.state = service.JobRunning
	job.started = time.Now()
	ctx, cancel := context.WithCancel(g.baseCtx)
	job.cancel = cancel
	alreadyCancelled := job.cancelled
	job.notifyLocked()
	job.mu.Unlock()
	defer cancel()
	g.metrics.jobs.Inc(string(service.JobRunning))
	if alreadyCancelled {
		cancel()
	}

	var payload json.RawMessage
	var err error
	if job.spec.Sweep != nil {
		payload, err = g.runSweepJob(ctx, job)
	} else {
		payload, err = g.runUnitJob(ctx, job)
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
	job.finish(state, payload, errMsg)
	g.metrics.jobs.Inc(string(state))
}

// runSweepJob scatters the sweep's cells into the tenant-fair dispatch
// queues (each cell at its content key's ring owner) and gathers the
// results back in grid order, so the merged payload and the NDJSON
// stream are byte-identical to a single backend's.
func (g *Gateway) runSweepJob(ctx context.Context, job *fleetJob) (json.RawMessage, error) {
	sw := job.spec.Sweep
	cells := sw.Cells()
	job.mu.Lock()
	job.total = len(cells)
	job.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered to len(cells): workers never block delivering, even if
	// this consumer has already bailed.
	resCh := make(chan taskResult, len(cells))
	tasks := make([]*task, 0, len(cells))
	for i, c := range cells {
		specJSON, err := json.Marshal(service.JobSpec{
			Sweep:     sw.SingleCellSweep(c),
			Options:   job.spec.Options,
			TimeoutMS: job.spec.TimeoutMS,
		})
		if err != nil {
			job.tenant.SubQueued(len(cells)) // nothing was enqueued
			return nil, err
		}
		key, err := service.SweepCellContentKey(c, sw.Mode, job.spec.Options)
		if err != nil {
			job.tenant.SubQueued(len(cells))
			return nil, err
		}
		tasks = append(tasks, &task{
			ctx: ctx, ten: job.tenant, key: key, content: true,
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
			job.appendCell(results[nextEmit])
			nextEmit++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	job.mu.Lock()
	job.hit = allHit
	job.mu.Unlock()
	return service.MergeSweepPayload(sw, results)
}

// runUnitJob forwards a whole cell/experiment job through the dispatch
// queue of its content-key owner.
func (g *Gateway) runUnitJob(ctx context.Context, job *fleetJob) (json.RawMessage, error) {
	specJSON, err := json.Marshal(job.spec)
	if err != nil {
		job.tenant.SubQueued(1)
		return nil, err
	}
	key, content := routeKey(&job.spec)
	resCh := make(chan taskResult, 1)
	g.disp.enqueue([]*task{{
		ctx: ctx, ten: job.tenant, key: key, content: content,
		specJSON: specJSON, owner: g.pool.ownerURL(key), resCh: resCh,
	}})
	res := <-resCh
	if res.err != nil {
		return nil, res.err
	}
	job.mu.Lock()
	job.hit = res.hit
	job.mu.Unlock()
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
// cache before computing anything. For a task served by its own queue,
// that is the owner's cache (the affinity payoff) and then the next
// ring node's — where bounded-load spill and failover would have left
// a copy. For a stolen task, it is the thief's own cache (spills and
// past steals leave copies off-owner) and then the original owner's, so
// rebalancing warm work does not recompute it. Results are
// content-addressed and deterministic, so the probed bytes are
// identical to a recompute.
func (g *Gateway) peerFill(t *task, b *Backend) (json.RawMessage, bool) {
	if !t.content || g.opts.NoPeerFill {
		return nil, false
	}
	if b.URL == t.owner {
		if payload, ok := g.cacheProbe(t.ctx, b, t.key); ok {
			g.metrics.Affinity(true)
			return payload, true
		}
		if peer := g.nextRingPeer(t.key, b.URL); peer != nil {
			if payload, ok := g.cacheProbe(t.ctx, peer, t.key); ok {
				g.metrics.peerFillHits.Inc()
				return payload, true
			}
		}
		return nil, false
	}
	if payload, ok := g.cacheProbe(t.ctx, b, t.key); ok {
		g.metrics.peerFillHits.Inc()
		return payload, true
	}
	if owner := g.pool.get(t.owner); owner != nil && owner.Healthy() {
		if payload, ok := g.cacheProbe(t.ctx, owner, t.key); ok {
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return json.RawMessage(data), true
}

// nextRingPeer returns the first healthy backend after owner in the
// key's ring order (the spill/failover target most likely to hold a
// stray copy).
func (g *Gateway) nextRingPeer(key, ownerURL string) *Backend {
	for _, url := range g.pool.seq(key) {
		if url == ownerURL {
			continue
		}
		if b := g.pool.get(url); b != nil && b.Healthy() {
			return b
		}
	}
	return nil
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
// placement), then failover with bounded-load re-picks and backoff
// across the retry budget.
func (g *Gateway) dispatch(t *task, worker *Backend) (json.RawMessage, bool, error) {
	ctx := t.ctx
	exclude := map[string]bool{}
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
		var backend *Backend
		var spilled bool
		if attempt == 0 && worker != nil && worker.Healthy() {
			backend = worker
		} else {
			var err error
			backend, spilled, err = g.pool.pick(t.key, exclude)
			if errors.Is(err, ErrNoBackends) && len(exclude) > 0 {
				// Every untried backend is down; widen the net and let the
				// prober re-admit whatever recovers.
				exclude = map[string]bool{}
				backend, spilled, err = g.pool.pick(t.key, exclude)
			}
			if err != nil {
				lastErr = err
				continue
			}
		}
		if spilled {
			g.metrics.spills.Inc()
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
			exclude[backend.URL] = true
		}
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	return nil, false, fmt.Errorf("after %d attempts: %w", g.opts.RetryBudget, lastErr)
}

// attempt submits specJSON to one backend, follows its NDJSON stream to
// the terminal line, and fetches the final view for cache-hit
// accounting. On cancellation after submission the backend job is
// cancelled best-effort.
func (g *Gateway) attempt(ctx context.Context, b *Backend, t *task) (json.RawMessage, bool, error) {
	b.acquire()
	defer b.release()
	g.metrics.dispatched.Inc(b.URL)

	view, err := g.submitRemote(ctx, b, t)
	if err != nil {
		return nil, false, err
	}
	remoteID := view.ID
	defer func() {
		if ctx.Err() != nil && remoteID != "" {
			go g.cancelRemote(b, remoteID)
		}
	}()

	lines, state, errMsg, err := g.followStream(ctx, b, remoteID)
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
	switch state {
	case service.JobDone:
	case service.JobFailed:
		// Deterministic failure: every backend would fail identically.
		return nil, false, permanentError{fmt.Errorf("backend %s: %s", b.URL, errMsg)}
	case service.JobBudgetExceeded:
		// Equally deterministic, but surfaced as its own terminal state.
		return nil, false, permanentError{budgetExceededError{errMsg}}
	default: // cancelled remotely (backend draining): retry elsewhere
		return nil, false, fmt.Errorf("backend %s: job %s", b.URL, state)
	}
	if len(lines) != 1 {
		return nil, false, fmt.Errorf("backend %s: %d data lines, want 1", b.URL, len(lines))
	}
	final, err := g.fetchView(ctx, b, remoteID)
	if err != nil {
		// The payload is already complete; treat hit accounting as best
		// effort.
		return lines[0], false, nil
	}
	return lines[0], final.CacheHit, nil
}

// submitRemote POSTs one job and decodes the accepted view. The
// tenant's name rides along in X-PC-Tenant so backend journals, access
// logs, and per-tenant counters attribute the work.
func (g *Gateway) submitRemote(ctx context.Context, b *Backend, t *task) (*service.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", b.URL+"/v1/jobs", bytes.NewReader(t.specJSON))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if t.ten != nil {
		req.Header.Set("X-PC-Tenant", t.ten.Name())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			g.pool.markDown(b, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusBadRequest, resp.StatusCode == http.StatusUnprocessableEntity:
		// 422: the backend rejected the program content itself — every
		// backend would, so failover is pointless.
		return nil, permanentError{fmt.Errorf("backend %s: %s", b.URL, readError(resp))}
	default:
		// 503 (draining, queue full) and 5xx: transient, try elsewhere.
		return nil, fmt.Errorf("backend %s: %s", b.URL, readError(resp))
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("backend %s: decoding submit: %w", b.URL, err)
	}
	return &view, nil
}

// followStream reads a backend job's NDJSON stream to EOF: data lines,
// then the terminal status line.
func (g *Gateway) followStream(ctx context.Context, b *Backend, id string) (lines []json.RawMessage, state service.JobState, errMsg string, err error) {
	req, err := http.NewRequestWithContext(ctx, "GET", b.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, "", "", err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", "", fmt.Errorf("stream: %s", readError(resp))
	}
	rd := bufio.NewReader(resp.Body)
	var raw [][]byte
	for {
		line, err := rd.ReadBytes('\n')
		line = bytes.TrimSuffix(line, []byte("\n"))
		if len(line) > 0 {
			raw = append(raw, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", "", err
		}
	}
	if len(raw) == 0 {
		return nil, "", "", errors.New("stream: empty")
	}
	var status struct {
		State service.JobState `json:"state"`
		Error string           `json:"error,omitempty"`
	}
	last := raw[len(raw)-1]
	if err := json.Unmarshal(last, &status); err != nil || status.State == "" {
		return nil, "", "", fmt.Errorf("stream: truncated (no status line)")
	}
	for _, l := range raw[:len(raw)-1] {
		lines = append(lines, json.RawMessage(l))
	}
	return lines, status.State, status.Error, nil
}

// fetchView GETs one backend job view.
func (g *Gateway) fetchView(ctx context.Context, b *Backend, id string) (*service.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", b.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: %s", id, resp.Status)
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
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
	resp.Body.Close()
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
