package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// testRegistry builds a closed two-tenant registry: an interactive
// tenant (weight 8) and a batch tenant (weight 1), with any extra spec
// fields applied by mut.
func testRegistry(t *testing.T, mut func(specs []tenant.Spec) []tenant.Spec) *tenant.Registry {
	t.Helper()
	specs := []tenant.Spec{
		{Name: "alice", Key: "alice-key", Weight: 8, Class: "interactive"},
		{Name: "bob", Key: "bob-key", Weight: 1, Class: "batch"},
	}
	if mut != nil {
		specs = mut(specs)
	}
	reg, err := tenant.NewRegistry(specs)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return reg
}

// authJSON is apiJSON plus a tenant API key; it returns the response
// headers for Retry-After assertions.
func authJSON(t *testing.T, method, url, key string, body []byte, wantStatus int, out any) http.Header {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.Header
}

// authWaitJob polls a keyed gateway until the job is terminal.
func authWaitJob(t *testing.T, base, key, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for {
		var view service.JobView
		authJSON(t, "GET", base+"/v1/jobs/"+id, key, nil, http.StatusOK, &view)
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d cells)", id, view.State, view.CellsDone, view.CellsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayAuth: a keyed gateway rejects unauthenticated and
// wrong-key job requests with 401, accepts valid keys (Bearer and
// X-PC-Tenant-Key), and leaves health and metrics endpoints open.
func TestGatewayAuth(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	_, gwTS := startGateway(t, []string{urlA}, func(o *Options) {
		o.Tenants = testRegistry(t, nil)
	})

	spec, _ := json.Marshal(service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}})
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "", spec, http.StatusUnauthorized, nil)
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "nope", spec, http.StatusUnauthorized, nil)
	authJSON(t, "GET", gwTS.URL+"/v1/jobs", "", nil, http.StatusUnauthorized, nil)

	var view service.JobView
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "alice-key", spec, http.StatusAccepted, &view)
	if view.Tenant != "alice" {
		t.Fatalf("job attributed to %q, want alice", view.Tenant)
	}

	// The alternate key header works too.
	req, _ := http.NewRequest("POST", gwTS.URL+"/v1/jobs", bytes.NewReader(spec))
	req.Header.Set("X-PC-Tenant-Key", "bob-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("X-PC-Tenant-Key submit: %d, want 202", resp.StatusCode)
	}

	// Probes and scrapers need no key.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if code := getStatus(t, gwTS.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s without key: %d, want 200", path, code)
		}
	}
}

// TestQuotaRejectionCarries429: a submission past the tenant's
// queued-cell quota answers 429 with a Retry-After header and counts
// into pcfleet_shed_total for the tenant's class.
func TestQuotaRejectionCarries429(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	gw, gwTS := startGateway(t, []string{urlA}, func(o *Options) {
		o.Tenants = testRegistry(t, func(specs []tenant.Spec) []tenant.Spec {
			specs[1].MaxQueuedCells = 4
			return specs
		})
	})

	// 18 cells against a 4-cell queued quota: deterministic rejection,
	// independent of how fast the backend drains.
	spec, _ := json.Marshal(service.JobSpec{Sweep: &testSweep})
	hdr := authJSON(t, "POST", gwTS.URL+"/v1/jobs", "bob-key", spec, http.StatusTooManyRequests, nil)
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if n := gw.Metrics().ShedTotal("batch"); n != 1 {
		t.Fatalf("shed_total{batch} = %d, want 1", n)
	}
	if v := metricValue(t, gwTS.URL, `pcfleet_shed_total{class="batch"}`); v != 1 {
		t.Fatalf("scraped shed_total{batch} = %v, want 1", v)
	}

	// The rejection left no queued-cell accounting behind: a small job
	// within quota still goes through.
	cell, _ := json.Marshal(service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}})
	var view service.JobView
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "bob-key", cell, http.StatusAccepted, &view)
	authWaitJob(t, gwTS.URL, "bob-key", view.ID)
}

// TestPeerFillServesWarmCacheAcrossRing: cells whose caches were warmed
// on one backend are served by peer-fill probes instead of recomputed
// when the ring assigns them elsewhere — and the merged stream stays
// byte-identical to the single-backend run that warmed them.
func TestPeerFillServesWarmCacheAcrossRing(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	urlB, _, _ := startBackend(t, service.Options{})

	// Warm every cell (and the job key) on A alone.
	spec := service.JobSpec{Sweep: &testSweep}
	ref := waitJob(t, urlA, submitJob(t, urlA, spec).ID)
	if ref.State != service.JobDone {
		t.Fatalf("warming sweep: %s (%s)", ref.State, ref.Error)
	}
	refStream := streamBytes(t, urlA, ref.ID)

	// A gateway over [A, B]: B-owned cells miss B's cache but peer-fill
	// from A; A-owned cells hit A's cache directly. Nothing recomputes.
	gw, gwTS := startGateway(t, []string{urlA, urlB}, nil)
	got := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if got.State != service.JobDone {
		t.Fatalf("fleet sweep: %s (%s)", got.State, got.Error)
	}
	if !got.CacheHit {
		t.Fatal("sweep over a fully warmed fleet not reported as a cache hit")
	}
	if !bytes.Equal(streamBytes(t, gwTS.URL, got.ID), refStream) {
		t.Fatal("peer-filled stream differs from the warming backend's stream")
	}
	if n := gw.Metrics().PeerFillHits(); n == 0 {
		t.Fatal("no peer-fill hits recorded (every B-owned cell should probe A)")
	}
	// No cell was dispatched to a backend for compute.
	resp, err := http.Get(gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "pcfleet_cells_dispatched_total{") {
		t.Fatalf("warmed sweep still dispatched cells:\n%s", body)
	}
}

// TestPeerFillProbeOrder pins which backend caches peerFill asks, in
// order: a task served from its owner's queue probes the owner, then the
// next ring node; a stolen task probes the thief, then the owner; a task
// without a content key probes nothing.
func TestPeerFillProbeOrder(t *testing.T) {
	var mu sync.Mutex
	var probes []string
	var urls []string
	for i := 0; i < 3; i++ {
		var self string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/v1/cache/") {
				mu.Lock()
				probes = append(probes, self)
				mu.Unlock()
			}
			http.NotFound(w, r)
		}))
		t.Cleanup(ts.Close)
		self = ts.URL
		urls = append(urls, self)
	}
	gw, err := New(Options{Pool: PoolOptions{Backends: urls}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range gw.pool.all() { // admitted without a prober
		b.mu.Lock()
		b.healthy = true
		b.mu.Unlock()
	}

	const key = "probe-order-key"
	seq := gw.pool.seq(key)
	for _, tc := range []struct {
		name    string
		worker  string
		content bool
		want    []string
	}{
		{"owner-served", seq[0], true, []string{seq[0], seq[1]}},
		{"stolen", seq[2], true, []string{seq[2], seq[0]}},
		{"non-content", seq[0], false, nil},
	} {
		mu.Lock()
		probes = nil
		mu.Unlock()
		tk := &task{ctx: context.Background(), key: key, content: tc.content, owner: seq[0]}
		if _, ok := gw.peerFill(tk, gw.pool.get(tc.worker)); ok {
			t.Fatalf("%s: peerFill hit on caches that hold nothing", tc.name)
		}
		mu.Lock()
		got := probes
		mu.Unlock()
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: probed %v, want %v", tc.name, got, tc.want)
		}
	}
}

// gateProxy fronts a backend and calls wait before forwarding each
// job-API request; health and peer-fill cache probes pass straight
// through.
func gateProxy(t *testing.T, target string, wait func()) string {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") && !strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			wait()
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// slowProxy fronts a backend with a fixed per-request delay on the job
// API, making the backend a straggler so its queue backs up.
func slowProxy(t *testing.T, target string, delay time.Duration) string {
	return gateProxy(t, target, func() { time.Sleep(delay) })
}

// holdTimeout bounds how long holdProxy holds a request when its
// release condition never comes true.
const holdTimeout = 30 * time.Second

// holdProxy fronts a backend and holds every job-API request until
// release reports true, making the backend a straggler whose queue
// backs up for as long as the condition takes, however fast the host.
// A request still held after holdTimeout goes through and sets the
// returned flag, so the test can fail instead of hanging.
func holdProxy(t *testing.T, target string, release func() bool) (string, *atomic.Bool) {
	timedOut := new(atomic.Bool)
	return gateProxy(t, target, func() {
		deadline := time.Now().Add(holdTimeout)
		for !release() {
			if time.Now().After(deadline) {
				timedOut.Store(true)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}), timedOut
}

// TestStealPreservesByteIdenticalStream: with one straggling backend,
// the fast backend steals from the straggler's queue tail; the merged
// stream must still be byte-identical to a single-backend run. The
// straggler is the backend that owns most of the sweep's cells (the
// ring placement follows the test servers' random ports), so its queue
// holds at least two cells behind the one in flight, the least a steal
// takes; and it answers nothing until the gateway has counted a steal,
// so the steal does not depend on how long a cell takes to simulate.
func TestStealPreservesByteIdenticalStream(t *testing.T) {
	refURL, _, _ := startBackend(t, service.Options{})
	var gwp atomic.Pointer[Gateway]
	var straggler atomic.Int32 // index of the held backend's proxy
	straggler.Store(-1)
	var proxies [2]string
	var timedOut [2]*atomic.Bool
	for i := range proxies {
		backend, _, _ := startBackend(t, service.Options{})
		proxies[i], timedOut[i] = holdProxy(t, backend, func() bool {
			return straggler.Load() != int32(i) || gwp.Load().Metrics().Steals() > 0
		})
	}

	// One worker per backend: the straggler's cells sit in its queue
	// (stealable) instead of being scattered into in-flight requests.
	gw, gwTS := startGateway(t, proxies[:], func(o *Options) {
		o.BackendConcurrency = 1
	})
	gwp.Store(gw)

	spec := service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 5}}
	norm := spec
	norm.Sweep = &service.SweepSpec{}
	*norm.Sweep = *spec.Sweep
	if _, err := norm.Normalize(map[string]*machine.Config{"baseline": machine.Baseline()}); err != nil {
		t.Fatal(err)
	}
	cells := norm.Sweep.Cells()
	owned := map[string]int{}
	for _, c := range cells {
		key, err := service.SweepCellContentKey(c, norm.Sweep.Mode, norm.Options)
		if err != nil {
			t.Fatal(err)
		}
		owned[gw.pool.ownerURL(key)]++
	}
	slow := 0
	if owned[proxies[1]] > owned[proxies[0]] {
		slow = 1
	}
	if owned[proxies[slow]] < 3 {
		t.Fatalf("cell owners %v: no backend owns 3 of the %d cells", owned, len(cells))
	}
	straggler.Store(int32(slow))

	ref := waitJob(t, refURL, submitJob(t, refURL, spec).ID)
	if ref.State != service.JobDone {
		t.Fatalf("reference sweep: %s (%s)", ref.State, ref.Error)
	}

	got := waitJob(t, gwTS.URL, submitJob(t, gwTS.URL, spec).ID)
	if got.State != service.JobDone {
		t.Fatalf("fleet sweep: %s (%s)", got.State, got.Error)
	}
	if n := gw.Metrics().Steals(); n == 0 || timedOut[0].Load() || timedOut[1].Load() {
		t.Fatalf("fast backend stole %d cells; a request was held past %v", n, holdTimeout)
	}
	if !bytes.Equal(streamBytes(t, gwTS.URL, got.ID), streamBytes(t, refURL, ref.ID)) {
		t.Fatal("stolen-cell stream differs from single-backend stream")
	}
}

// TestInteractivePreemptsBatchBacklog: with a batch sweep queued behind
// one slow backend, a later interactive submission must be served ahead
// of the remaining batch cells (strict class priority in the DRR
// dispatcher) and finish while the batch job is still running.
func TestInteractivePreemptsBatchBacklog(t *testing.T) {
	urlA, _, _ := startBackend(t, service.Options{})
	slowA := slowProxy(t, urlA, 100*time.Millisecond)
	_, gwTS := startGateway(t, []string{slowA}, func(o *Options) {
		o.Tenants = testRegistry(t, nil)
		o.BackendConcurrency = 1
	})

	batchSpec, _ := json.Marshal(service.JobSpec{Sweep: &testSweep})
	var batch service.JobView
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "bob-key", batchSpec, http.StatusAccepted, &batch)

	cellSpec, _ := json.Marshal(service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}})
	var inter service.JobView
	authJSON(t, "POST", gwTS.URL+"/v1/jobs", "alice-key", cellSpec, http.StatusAccepted, &inter)

	interDone := authWaitJob(t, gwTS.URL, "alice-key", inter.ID)
	if interDone.State != service.JobDone {
		t.Fatalf("interactive job: %s (%s)", interDone.State, interDone.Error)
	}
	var batchView service.JobView
	authJSON(t, "GET", gwTS.URL+"/v1/jobs/"+batch.ID, "bob-key", nil, http.StatusOK, &batchView)
	if batchView.State.Terminal() {
		t.Fatal("batch sweep already finished: interactive job did not preempt anything")
	}
	authWaitJob(t, gwTS.URL, "bob-key", batch.ID)
}
