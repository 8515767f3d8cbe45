package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pcoup/internal/service"
)

// startBackend boots one real pcserved (in-process service + HTTP) and
// returns its base URL plus handles for mid-test demolition.
func startBackend(t *testing.T, opts service.Options) (string, *service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(opts)
	if err := srv.Start(); err != nil {
		t.Fatalf("backend Start: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts.URL, srv, ts
}

// startGateway builds and starts a gateway over the URLs (with fast
// probes) and serves its handler.
func startGateway(t *testing.T, urls []string, mut func(*Options)) (*Gateway, *httptest.Server) {
	t.Helper()
	opts := Options{
		Pool: PoolOptions{Backends: urls, ProbeInterval: 100 * time.Millisecond},
	}
	if mut != nil {
		mut(&opts)
	}
	gw, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := gw.Start(); err != nil {
		t.Fatalf("gateway Start: %v", err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		gw.Shutdown(ctx)
	})
	return gw, ts
}

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

func submitJob(t *testing.T, base string, spec service.JobSpec) service.JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	var view service.JobView
	apiJSON(t, "POST", base+"/v1/jobs", body, http.StatusAccepted, &view)
	return view
}

func waitJob(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for {
		var view service.JobView
		apiJSON(t, "GET", base+"/v1/jobs/"+id, nil, http.StatusOK, &view)
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d cells)", id, view.State, view.CellsDone, view.CellsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamBytes reads a finished job's full NDJSON stream.
func streamBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return data
}

// metricValue scrapes one labelled-or-not sample from /metrics.
func metricValue(t *testing.T, base, sample string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", sample, buf.String())
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var testSweep = service.SweepSpec{
	Benches: []string{"fft", "matrix"}, MinIU: 1, MaxIU: 3,
}

// TestFleetSweepByteIdentical is the tentpole acceptance test: the same
// sweep through a 2-backend gateway streams byte-identically to a
// single pcserved, and an identical resubmission is served almost
// entirely from the sharded caches (affinity hits).
func TestFleetSweepByteIdentical(t *testing.T) {
	refURL, _, _ := startBackend(t, service.Options{})
	urlA, _, _ := startBackend(t, service.Options{})
	urlB, _, _ := startBackend(t, service.Options{})
	gw, gwTS := startGateway(t, []string{urlA, urlB}, nil)

	spec := service.JobSpec{Sweep: &testSweep}

	refDone := waitJob(t, refURL, submitJob(t, refURL, spec).ID)
	if refDone.State != service.JobDone {
		t.Fatalf("reference sweep: %s (%s)", refDone.State, refDone.Error)
	}
	refStream := streamBytes(t, refURL, refDone.ID)

	first := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if first.State != service.JobDone {
		t.Fatalf("fleet sweep: %s (%s)", first.State, first.Error)
	}
	if first.CacheHit {
		t.Fatal("cold fleet sweep claims a cache hit")
	}
	gwStream := streamBytes(t, gwTS.URL, first.ID)
	if !bytes.Equal(refStream, gwStream) {
		t.Fatalf("fleet stream differs from single-backend stream:\n ref: %q\n gw:  %q", refStream, gwStream)
	}
	if !bytes.Equal(refDone.Result, first.Result) {
		t.Fatalf("fleet merged result differs from single-backend result")
	}

	// Both backends must have received cells (the scatter actually
	// sharded; 18 cells over 2 backends make a one-sided split
	// astronomically unlikely).
	for _, u := range []string{urlA, urlB} {
		if n := metricValue(t, gwTS.URL, `pcfleet_cells_dispatched_total{backend="`+u+`"}`); n == 0 {
			t.Fatalf("backend %s received no cells", u)
		}
	}

	// Resubmission: every cell routes back to its owner and hits its
	// cache.
	lookupsBefore, hitsBefore := gw.Metrics().AffinityStats()
	second := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if second.State != service.JobDone {
		t.Fatalf("repeat fleet sweep: %s (%s)", second.State, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("repeat fleet sweep not served from backend caches")
	}
	if !bytes.Equal(streamBytes(t, gwTS.URL, second.ID), refStream) {
		t.Fatal("repeat fleet stream differs from reference")
	}
	lookups, hits := gw.Metrics().AffinityStats()
	dl, dh := lookups-lookupsBefore, hits-hitsBefore
	if dl == 0 {
		t.Fatal("repeat sweep recorded no affinity lookups")
	}
	if float64(dh) < 0.9*float64(dl) {
		t.Fatalf("affinity hit ratio on resubmission: %d/%d, want >= 90%%", dh, dl)
	}
}

// TestSweepCachesEachCellOnce: a sweep stores each cell once, under its
// cell key, on a lone pcserved and on a backend behind a gateway (where
// every scattered cell arrives as a one-cell sweep). An identical
// resubmission is a cache hit whose cells stream and merge byte-
// identically, and it adds no entry.
func TestSweepCachesEachCellOnce(t *testing.T) {
	spec := service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"matrix"}, MinIU: 1, MaxIU: 2}}
	const cells = 4
	lone, _, _ := startBackend(t, service.Options{})
	backend, _, _ := startBackend(t, service.Options{})
	_, gwTS := startGateway(t, []string{backend}, nil)

	// cellLines drops the stream's status line, which carries cache_hit
	// on a lone pcserved's hit.
	cellLines := func(stream []byte) []byte {
		return stream[:bytes.LastIndexByte(bytes.TrimSuffix(stream, []byte("\n")), '\n')+1]
	}
	for _, tc := range []struct{ name, submitURL, backendURL string }{
		{"alone", lone, lone},
		{"gateway", gwTS.URL, backend},
	} {
		first := waitJob(t, tc.submitURL, submitJob(t, tc.submitURL, spec).ID)
		if first.State != service.JobDone || first.CellsDone != cells {
			t.Fatalf("%s: sweep %s with %d cells (%s)", tc.name, first.State, first.CellsDone, first.Error)
		}
		if first.CacheHit {
			t.Fatalf("%s: cold sweep claims a cache hit", tc.name)
		}
		if n := metricValue(t, tc.backendURL, "pcserved_cache_entries"); n != cells {
			t.Fatalf("%s: %d-cell sweep left %v cache entries, want %d", tc.name, cells, n, cells)
		}

		second := waitJob(t, tc.submitURL, submitJob(t, tc.submitURL, spec).ID)
		if second.State != service.JobDone || !second.CacheHit {
			t.Fatalf("%s: resubmission %s, cache_hit %v", tc.name, second.State, second.CacheHit)
		}
		if !bytes.Equal(first.Result, second.Result) {
			t.Fatalf("%s: resubmitted result differs", tc.name)
		}
		s1, s2 := streamBytes(t, tc.submitURL, first.ID), streamBytes(t, tc.submitURL, second.ID)
		if !bytes.Equal(cellLines(s1), cellLines(s2)) || len(cellLines(s1)) == 0 {
			t.Fatalf("%s: resubmitted stream differs:\n first: %q\nsecond: %q", tc.name, s1, s2)
		}
		if n := metricValue(t, tc.backendURL, "pcserved_cache_entries"); n != cells {
			t.Fatalf("%s: resubmission left %v cache entries, want %d", tc.name, n, cells)
		}
	}
}

// TestFleetUnitJobForward: non-sweep jobs forward whole to their
// content-key owner, and the repeat hits the same backend's cache.
func TestFleetUnitJobForward(t *testing.T) {
	refURL, _, _ := startBackend(t, service.Options{})
	urlA, _, _ := startBackend(t, service.Options{})
	urlB, _, _ := startBackend(t, service.Options{})
	_, gwTS := startGateway(t, []string{urlA, urlB}, nil)

	spec := service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}}
	ref := waitJob(t, refURL, submitJob(t, refURL, spec).ID)
	got := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if got.State != service.JobDone {
		t.Fatalf("unit job: %s (%s)", got.State, got.Error)
	}
	if !bytes.Equal(ref.Result, got.Result) {
		t.Fatal("forwarded unit job result differs from direct run")
	}
	repeat := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if !repeat.CacheHit {
		t.Fatal("repeat unit job missed the owner's cache")
	}
}

// TestFleetFailoverMidSweep kills one of two backends while a sweep is
// in flight: the job must still complete, report every cell, and match
// a single-backend run byte for byte; the gateway must record at least
// one failover.
func TestFleetFailoverMidSweep(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	urlB, _, victimTS := startBackend(t, service.Options{})
	gw, gwTS := startGateway(t, []string{urlA, urlB}, nil)

	// ~25 lud cells: slow enough that the kill lands mid-sweep.
	spec := service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 5}}
	job := submitJob(t, gwTS.URL, spec)

	// Wait for the sweep to be genuinely in flight, then kill backend B
	// abruptly (connections torn down, no drain).
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var view service.JobView
		apiJSON(t, "GET", gwTS.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &view)
		if view.CellsDone >= 1 {
			break
		}
		if view.State.Terminal() {
			t.Fatalf("sweep finished before the kill: %s", view.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victimTS.CloseClientConnections()
	victimTS.Close()

	final := waitJob(t, gwTS.URL, job.ID)
	if final.State != service.JobDone {
		t.Fatalf("sweep after backend kill: %s (%s)", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.CellsTotal != 25 {
		t.Fatalf("cells %d/%d, want 25/25", final.CellsDone, final.CellsTotal)
	}
	if n := gw.Metrics().Failovers(); n == 0 {
		t.Fatal("no failovers recorded despite a mid-sweep backend kill")
	}
	if up := metricValue(t, gwTS.URL, `pcfleet_backend_up{backend="`+urlB+`"}`); up != 0 {
		t.Fatalf("killed backend still marked up")
	}

	// The surviving backend replays the sweep (mostly from its cache)
	// and must produce the identical stream.
	ref := waitJob(t, urlA, submitJob(t, urlA, spec).ID)
	if ref.State != service.JobDone {
		t.Fatalf("reference sweep on survivor: %s (%s)", ref.State, ref.Error)
	}
	if !bytes.Equal(streamBytes(t, urlA, ref.ID), streamBytes(t, gwTS.URL, job.ID)) {
		t.Fatal("failover stream differs from single-backend stream")
	}
}

// TestSweepFailureDoesNotLeakTenantAccounting: failed sweeps — each
// cell an immediate permanent 400 — must return every queued-cell and
// inflight-cell count to zero. A leak in either would eventually pin
// the tenant against its quotas (or strand tasks in the dispatch
// queues) even though no work is outstanding.
func TestSweepFailureDoesNotLeakTenantAccounting(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Health{Status: "ready", Accepting: true, Workers: 1})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"rejected"}`, http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	gw, _ := startGateway(t, []string{ts.URL}, func(o *Options) {
		o.BackendConcurrency = 2
	})
	ten := gw.Tenants().Default()
	for i := 0; i < 25; i++ {
		job, err := gw.Submit(service.JobSpec{Sweep: &testSweep})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if v := job.View(false); v.State != service.JobFailed {
			t.Fatalf("sweep %d: state %s, want %s", i, v.State, service.JobFailed)
		}
		if n := gw.disp.queued(); n != 0 {
			t.Fatalf("sweep %d left %d tasks in the dispatch queues", i, n)
		}
		if q := ten.Queued(); q != 0 {
			t.Fatalf("sweep %d leaked %d queued-cell count(s)", i, q)
		}
		if inf := ten.Inflight(); inf != 0 {
			t.Fatalf("sweep %d leaked %d inflight-cell count(s)", i, inf)
		}
	}
}

// TestValidateRejectsForeignPresetSweep: a sweep naming a backend-only
// preset must be rejected at the gateway exactly like the backend would
// reject it, not scattered unnormalized into zero cells.
func TestValidateRejectsForeignPresetSweep(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	gw, _ := startGateway(t, []string{urlA}, func(o *Options) {
		o.PresetNames = []string{"wide"}
	})
	sw := testSweep
	_, err := gw.Submit(service.JobSpec{Preset: "wide", Sweep: &sw})
	if err == nil {
		t.Fatal("sweep with foreign preset accepted")
	}
	if !strings.Contains(err.Error(), "sweep jobs build their own machines") {
		t.Fatalf("wrong rejection: %v", err)
	}
	// Cell jobs with a known foreign preset still pass the gateway's
	// structural check (the owning backend validates fully).
	if _, err := gw.Submit(service.JobSpec{Preset: "wide"}); err == nil {
		t.Fatal("foreign-preset spec with no work selected was accepted")
	}
}

// TestGatewayReadyz: the gateway reports unready (503) when every
// backend is down, and ready once one is probed back up.
func TestGatewayReadyz(t *testing.T) {
	urlA, _, backendTS := startBackend(t, service.Options{})
	_, gwTS := startGateway(t, []string{urlA}, nil)

	if code := getStatus(t, gwTS.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with healthy backend: %d", code)
	}
	backendTS.CloseClientConnections()
	backendTS.Close()
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, gwTS.URL+"/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 503 after the only backend died")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Liveness is unaffected.
	if code := getStatus(t, gwTS.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", code)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
