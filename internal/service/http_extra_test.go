package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestStreamClientDisconnect: a stream follower whose client goes away
// must release its handler goroutine promptly instead of blocking on
// the job's update channel forever.
func TestStreamClientDisconnect(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})

	// Occupy the only worker so the streamed job stays queued (and thus
	// never publishes an update the stream could wake on).
	blocker := submit(t, ts, JobSpec{Sweep: &SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 6}})
	queued := submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "SEQ"}})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/jobs/"+queued.ID+"/stream", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(returned)
	}()

	// Let the handler reach its blocking select, then disconnect.
	select {
	case <-returned:
		t.Fatal("stream returned before the client disconnected (job should still be queued)")
	case <-time.After(100 * time.Millisecond):
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler still blocked 5s after client disconnect")
	}

	if _, err := srv.jobs.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.jobs.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzDrain: during shutdown the daemon stays live (200 /healthz)
// but turns unready (503 /readyz with Retry-After), so probes stop
// routing to it without restarting it.
func TestReadyzDrain(t *testing.T) {
	srv := New(Options{Workers: 1})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Park a slow job so Shutdown blocks in its drain phase.
	blocker := submit(t, ts, JobSpec{Sweep: &SweepSpec{Benches: []string{"lud"}, MinIU: 1, MaxIU: 6}})
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code, retryAfter := resp.StatusCode, resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retryAfter == "" {
				t.Fatal("draining readyz has no Retry-After header")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Liveness is unaffected by the drain.
	var h Health
	apiJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Accepting {
		t.Fatalf("healthz during drain: %+v", h)
	}

	if _, err := srv.jobs.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestCacheEvictionMetric: a 1-entry cache bound forces an eviction
// across two distinct jobs, visible in /metrics.
func TestCacheEvictionMetric(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CacheMaxEntries: 1})

	for _, spec := range []JobSpec{
		{Cell: &CellSpec{Bench: "matrix", Mode: "SEQ"}},
		{Cell: &CellSpec{Bench: "fft", Mode: "SEQ"}},
	} {
		if v := waitJob(t, ts, submit(t, ts, spec).ID); v.State != JobDone {
			t.Fatalf("job: %s (%s)", v.State, v.Error)
		}
	}
	if n := metricValue(t, ts, "pcserved_cache_evictions_total"); n < 1 {
		t.Fatalf("evictions = %v, want >= 1", n)
	}
	if n := metricValue(t, ts, "pcserved_cache_entries"); n != 1 {
		t.Fatalf("cache entries = %v, want 1 under a 1-entry bound", n)
	}
	if n := metricValue(t, ts, "pcserved_cache_bytes"); n <= 0 {
		t.Fatalf("cache bytes = %v, want > 0", n)
	}
}

// TestCacheProbeCountsOnlyHits: a GET /v1/cache/ probe that misses
// leaves the miss counter alone (the job that computes the cell counts
// it), while a probe that hits counts the hit and refreshes recency.
func TestCacheProbeCountsOnlyHits(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, CacheMaxEntries: 2})
	srv.cache.Put("a", []byte(`{"a":1}`))
	srv.cache.Put("b", []byte(`{"b":1}`)) // a is now least recently used

	probe := func(key string, wantStatus int, wantCache, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus || resp.Header.Get("X-PC-Cache") != wantCache {
			t.Fatalf("probe %s: status %d X-PC-Cache %q, want %d %q", key, resp.StatusCode, resp.Header.Get("X-PC-Cache"), wantStatus, wantCache)
		}
		if wantBody != "" && string(body) != wantBody {
			t.Fatalf("probe %s: body %s, want %s", key, body, wantBody)
		}
	}

	probe("absent", http.StatusNotFound, "miss", "")
	if n := metricValue(t, ts, "pcserved_cache_misses_total"); n != 0 {
		t.Fatalf("a missing probe counted %v misses, want 0", n)
	}
	probe("a", http.StatusOK, "hit", `{"a":1}`)
	if n := metricValue(t, ts, "pcserved_cache_hits_total"); n != 1 {
		t.Fatalf("a hitting probe counted %v hits, want 1", n)
	}
	// The hit made a the most recent entry, so the next insert evicts b.
	srv.cache.Put("c", []byte(`{"c":1}`))
	if _, ok := srv.cache.Peek("a"); !ok {
		t.Fatal("probed entry a was evicted: the hit did not refresh its recency")
	}
	if _, ok := srv.cache.Peek("b"); ok {
		t.Fatal("entry b survived: it should have been the LRU victim")
	}
}
