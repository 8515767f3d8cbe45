package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pcoup/internal/machine"
)

// newTestServer starts a service with its HTTP API on an ephemeral port.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

// apiJSON performs one API call and decodes the response into out.
func apiJSON(t *testing.T, method, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	var view JobView
	apiJSON(t, "POST", ts.URL+"/v1/jobs", body, http.StatusAccepted, &view)
	return view
}

// waitJob polls until the job is terminal and returns the final view
// (with result).
func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var view JobView
		apiJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil, http.StatusOK, &view)
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricValue scrapes one sample value from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestSweepCacheByteIdentical is the tentpole acceptance test: the same
// sweep submitted twice — with unrelated fresh jobs running concurrently
// — produces byte-identical result payloads, with the repeat served from
// the cache.
func TestSweepCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})

	sweep := JobSpec{Sweep: &SweepSpec{Benches: []string{"fft", "matrix"}, MinIU: 1, MaxIU: 2}}
	first := submit(t, ts, sweep)

	// Fresh, unrelated jobs churn the pool and the cache concurrently.
	var wg sync.WaitGroup
	for _, spec := range []JobSpec{
		{Cell: &CellSpec{Bench: "model", Mode: "SEQ"}},
		{Cell: &CellSpec{Bench: "matrix", Mode: "TPE"}},
		{Experiment: "table2"},
	} {
		id := submit(t, ts, spec).ID
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := waitJob(t, ts, id); v.State != JobDone {
				t.Errorf("fresh job %s: %s (%s)", id, v.State, v.Error)
			}
		}()
	}

	firstDone := waitJob(t, ts, first.ID)
	wg.Wait()
	if firstDone.State != JobDone {
		t.Fatalf("first sweep: %s (%s)", firstDone.State, firstDone.Error)
	}
	if firstDone.CacheHit {
		t.Fatal("first sweep claims a whole-job cache hit on a cold cache")
	}
	if firstDone.CellsDone != firstDone.CellsTotal || firstDone.CellsTotal != 2*2*2 {
		t.Fatalf("first sweep cells: %d/%d, want 8/8", firstDone.CellsDone, firstDone.CellsTotal)
	}

	hitsBefore := metricValue(t, ts, "pcserved_cache_hits_total")

	second := submit(t, ts, sweep)
	secondDone := waitJob(t, ts, second.ID)
	if secondDone.State != JobDone {
		t.Fatalf("second sweep: %s (%s)", secondDone.State, secondDone.Error)
	}
	if !secondDone.CacheHit {
		t.Fatal("second identical sweep was not served from the cache")
	}
	if !bytes.Equal(firstDone.Result, secondDone.Result) {
		t.Fatalf("repeat sweep payload differs:\n first: %s\nsecond: %s", firstDone.Result, secondDone.Result)
	}
	if len(firstDone.Result) == 0 {
		t.Fatal("sweep result is empty")
	}
	if hitsAfter := metricValue(t, ts, "pcserved_cache_hits_total"); hitsAfter <= hitsBefore {
		t.Fatalf("cache hits did not increase across the repeat sweep: %v -> %v", hitsBefore, hitsAfter)
	}
	if misses := metricValue(t, ts, "pcserved_cache_misses_total"); misses == 0 {
		t.Fatal("expected cold-cache misses to be counted")
	}
}

// TestCancelMidRun covers prompt DELETE cancellation: a running sweep
// transitions to cancelled quickly after the request.
func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// ~100 lud cells: tens of seconds of work if left alone.
	big := JobSpec{Sweep: &SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 10}}
	job := submit(t, ts, big)

	// Wait until it is actually running (first cells landing).
	deadline := time.Now().Add(time.Minute)
	for {
		var view JobView
		apiJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &view)
		if view.State == JobRunning && view.CellsDone >= 1 {
			break
		}
		if view.State.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %s", view.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	var view JobView
	apiJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &view)
	final := waitJob(t, ts, job.ID)
	latency := time.Since(start)
	if final.State != JobCancelled {
		t.Fatalf("after DELETE: state %s (%s), want cancelled", final.State, final.Error)
	}
	if latency > 5*time.Second {
		t.Fatalf("cancellation took %s; want prompt (<5s)", latency)
	}
	if final.CellsDone >= final.CellsTotal {
		t.Fatalf("cancelled sweep claims all %d cells done", final.CellsTotal)
	}
}

// TestCancelQueued covers cancelling before a worker picks the job up.
func TestCancelQueued(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})

	// Occupy the single worker so the next submission stays queued.
	blocker := submit(t, ts, JobSpec{Sweep: &SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 8}})
	queued := submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "SEQ"}})

	var view JobView
	apiJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil, http.StatusOK, &view)
	if view.State != JobCancelled {
		t.Fatalf("queued job after DELETE: %s, want cancelled immediately", view.State)
	}
	if _, err := srv.jobs.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancelling blocker: %v", err)
	}
	waitJob(t, ts, blocker.ID)
}

// TestGracefulShutdownDrains covers the drain path: in-flight jobs
// complete, new submissions are refused, and the cache persists to disk.
func TestGracefulShutdownDrains(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	srv := New(Options{Workers: 2, CacheFile: cacheFile})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := []string{
		submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "Coupled"}}).ID,
		submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "STS"}}).ID,
		submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "model", Mode: "TPE"}}).ID,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for _, id := range ids {
		job, err := srv.jobs.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v := job.View(false); v.State != JobDone {
			t.Errorf("job %s after drain: %s (%s), want done", id, v.State, v.Error)
		}
	}
	if _, err := srv.Submit(JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "SEQ"}}); err != ErrDraining {
		t.Fatalf("submit during drain: err %v, want ErrDraining", err)
	}

	data, err := os.ReadFile(cacheFile)
	if err != nil {
		t.Fatalf("cache not persisted: %v", err)
	}
	var doc struct {
		Version int `json:"version"`
		Entries []struct {
			Key     string `json:"key"`
			Payload []byte `json:"payload"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("cache file: %v", err)
	}
	if len(doc.Entries) < 3 {
		t.Fatalf("cache file has %d entries, want >= 3", len(doc.Entries))
	}

	// A new daemon warm-starts from the file: the same cell is a hit.
	srv2 := New(Options{Workers: 1, CacheFile: cacheFile})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	view := waitJob(t, ts2, submit(t, ts2, JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "Coupled"}}).ID)
	if view.State != JobDone || !view.CacheHit {
		t.Fatalf("warm-start repeat cell: state %s, hit %v; want done from cache", view.State, view.CacheHit)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestStreamNDJSON covers the sweep streaming endpoint: one JSON object
// per cell in grid order plus a terminal status line.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	job := submit(t, ts, JobSpec{Sweep: &SweepSpec{Benches: []string{"matrix"}, MinIU: 1, MaxIU: 2}})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("stream content type: %s", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4+1 { // 1 bench x 2 IU x 2 FPU cells + status line
		t.Fatalf("stream had %d lines, want 5:\n%s", len(lines), buf.String())
	}
	for i, line := range lines[:4] {
		var cell CellResult
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if cell.Bench != "matrix" || cell.Cycles <= 0 {
			t.Fatalf("line %d: bad cell %+v", i, cell)
		}
	}
	var status struct {
		State JobState `json:"state"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &status); err != nil || status.State != JobDone {
		t.Fatalf("status line %q: %v", lines[4], err)
	}
}

// TestSpecValidation covers the API's rejection paths.
func TestSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"two selectors", `{"experiment":"table2","cell":{"bench":"fft","mode":"SEQ"}}`},
		{"unknown experiment", `{"experiment":"figure99"}`},
		{"unknown bench", `{"cell":{"bench":"nope","mode":"SEQ"}}`},
		{"unknown mode", `{"cell":{"bench":"fft","mode":"Turbo"}}`},
		{"missing ideal variant", `{"cell":{"bench":"lud","mode":"Ideal"}}`},
		{"unknown preset", `{"experiment":"table2","preset":"nope"}`},
		{"machine and preset", `{"experiment":"table2","preset":"baseline","machine":{"name":"x"}}`},
		{"invalid machine", `{"experiment":"table2","machine":{"name":"x","clusters":[]}}`},
		{"bad sweep range", `{"sweep":{"min_iu":3,"max_iu":1}}`},
		{"oversized sweep", `{"sweep":{"min_iu":1,"max_iu":17}}`},
		{"trace on sweep", `{"sweep":{"min_iu":1,"max_iu":1},"options":{"trace":true}}`},
		{"unknown field", `{"experiment":"table2","bogus":1}`},
		{"negative timeout", `{"experiment":"table2","timeout_ms":-5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apiJSON(t, "POST", ts.URL+"/v1/jobs", []byte(tc.body), http.StatusBadRequest, nil)
		})
	}

	apiJSON(t, "GET", ts.URL+"/v1/jobs/j-999999", nil, http.StatusNotFound, nil)
}

// TestQueueFull covers the bounded-queue backpressure path.
func TestQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 2})

	// The worker takes one job; two more fill the queue.
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts, JobSpec{Sweep: &SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 4}}).ID)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if v, _ := srv.jobs.Get(ids[0]); func() bool {
			view := v.View(false)
			return view.State == JobRunning
		}() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	body, _ := json.Marshal(JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "SEQ"}})
	apiJSON(t, "POST", ts.URL+"/v1/jobs", body, http.StatusServiceUnavailable, nil)

	for _, id := range ids {
		if _, err := srv.jobs.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExperimentJobMatchesPcbench pins the experiment job payload shape.
func TestExperimentJobMatchesPcbench(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	view := waitJob(t, ts, submit(t, ts, JobSpec{Experiment: "table3"}).ID)
	if view.State != JobDone {
		t.Fatalf("table3 job: %s (%s)", view.State, view.Error)
	}
	var res struct {
		Experiment string          `json:"experiment"`
		MachineSHA string          `json:"machine_sha256"`
		Rows       json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "table3" || len(res.MachineSHA) != 64 || len(res.Rows) == 0 {
		t.Fatalf("bad experiment payload: %s", view.Result)
	}
}

// TestCellTraceOption covers the trace knob end to end: the result embeds
// a parseable Chrome trace document, and traced/untraced runs cache
// under different keys.
func TestCellTraceOption(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	plain := waitJob(t, ts, submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "model", Mode: "Coupled"}}).ID)
	traced := waitJob(t, ts, submit(t, ts, JobSpec{
		Cell:    &CellSpec{Bench: "model", Mode: "Coupled"},
		Options: SimOptions{Trace: true},
	}).ID)
	if plain.State != JobDone || traced.State != JobDone {
		t.Fatalf("states: %s / %s", plain.State, traced.State)
	}
	if traced.CacheHit {
		t.Fatal("traced run must not hit the untraced run's cache entry")
	}
	var cell CellResult
	if err := json.Unmarshal(traced.Result, &cell); err != nil {
		t.Fatal(err)
	}
	if len(cell.Trace) == 0 {
		t.Fatal("traced cell has no trace document")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cell.Trace, &doc); err != nil {
		t.Fatalf("trace document: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace document is empty")
	}
}

// TestPresets covers preset resolution and that preset names surface in
// the rejection message.
func TestPresets(t *testing.T) {
	// An unusual machine so a preset run cannot collide with baseline
	// cache entries.
	cfg := machine.Mix(3, 3)
	_, ts := newTestServer(t, Options{Workers: 1, Presets: map[string]*machine.Config{"wide": cfg}})
	view := waitJob(t, ts, submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "Coupled"}, Preset: "wide"}).ID)
	if view.State != JobDone {
		t.Fatalf("preset job: %s (%s)", view.State, view.Error)
	}
	var cell CellResult
	if err := json.Unmarshal(view.Result, &cell); err != nil {
		t.Fatal(err)
	}
	wantSHA, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if cell.MachineSHA != wantSHA {
		t.Fatalf("preset cell ran on machine %s, want %s", cell.MachineSHA, wantSHA)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"table2","preset":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "wide") {
		t.Fatalf("unknown-preset error should list valid presets: %d %s", resp.StatusCode, buf.String())
	}
}

func ExampleJobState_Terminal() {
	fmt.Println(JobQueued.Terminal(), JobDone.Terminal())
	// Output: false true
}
