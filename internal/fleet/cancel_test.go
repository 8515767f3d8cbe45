package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcoup/internal/service"
)

// fakeBackend is a scripted pcserved stand-in that speaks the streaming
// POST: it names the job in X-PC-Job, flushes, and then "finishes" the
// job at once — unless the backend is stalled, in which case the stream
// hangs until the client gives up. It counts submissions and job GETs
// and records DELETEs, so tests can assert what one dispatch costs and
// that cancellations reach the backend.
type fakeBackend struct {
	stalled atomic.Bool
	posts   atomic.Int64
	gets    atomic.Int64

	mu      sync.Mutex
	nextID  int
	deletes []string
}

func (f *fakeBackend) deleted() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.deletes...)
}

func (f *fakeBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.Health{Status: "ready", Accepting: true, Workers: 1})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.posts.Add(1)
		f.mu.Lock()
		f.nextID++
		id := fmt.Sprintf("x-%06d", f.nextID)
		f.mu.Unlock()
		w.Header().Set("X-PC-Job", id)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.(http.Flusher).Flush()
		if f.stalled.Load() {
			<-r.Context().Done() // hang like a straggler
			return
		}
		fmt.Fprintf(w, "{\"v\":1}\n{\"state\":\"done\"}\n")
	})
	countGet := func(w http.ResponseWriter, r *http.Request) {
		f.gets.Add(1)
		http.Error(w, "the gateway should not need this", http.StatusGone)
	}
	mux.HandleFunc("GET /v1/jobs/{id}", countGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", countGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deletes = append(f.deletes, r.PathValue("id"))
		f.mu.Unlock()
		json.NewEncoder(w).Encode(service.JobView{ID: r.PathValue("id"), State: service.JobCancelled})
	})
	return mux
}

// jobIDSeen counts dispatch responses that named their backend job, so
// a test can wait until the gateway knows the ID a DELETE would need.
type jobIDSeen struct {
	http.RoundTripper
	n atomic.Int64
}

func (s *jobIDSeen) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.RoundTripper.RoundTrip(req)
	if err == nil && resp.Header.Get("X-PC-Job") != "" {
		s.n.Add(1)
	}
	return resp, err
}

// TestCancelReachesStalledBackend: cancelling a gateway job whose cell
// is stuck on a backend that stalls (but still passes health probes)
// finishes the job promptly, DELETEs the backend job exactly once, and
// leaves the slow backend admitted — slow is not dead. A computed cell
// then costs exactly one POST and no job GET.
func TestCancelReachesStalledBackend(t *testing.T) {
	fakes := map[string]*fakeBackend{}
	var urls []string
	for i := 0; i < 2; i++ {
		f := &fakeBackend{}
		ts := httptest.NewServer(f.handler())
		t.Cleanup(ts.Close)
		fakes[ts.URL] = f
		urls = append(urls, ts.URL)
	}
	gw, _ := startGateway(t, urls, nil)
	seen := &jobIDSeen{RoundTripper: gw.client.Transport}
	gw.client.Transport = seen

	spec := service.JobSpec{Cell: &service.CellSpec{Bench: "fft", Mode: "TPE"}}
	key, _ := routeKey(&spec)
	owner := gw.pool.get(gw.pool.ownerURL(key))
	stalled := fakes[owner.URL]
	stalled.stalled.Store(true)

	job, err := gw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for seen.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cell never reached its stalled owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := gw.jobs.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished while its backend stalled")
	}
	if v := job.View(false); v.State != service.JobCancelled {
		t.Fatalf("job state %s (%s), want cancelled", v.State, v.Error)
	}

	// The backend job is cancelled best-effort and asynchronously.
	deadline = time.Now().Add(10 * time.Second)
	for len(stalled.deleted()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled backend never received a DELETE")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dels := stalled.deleted(); len(dels) != 1 {
		t.Fatalf("stalled backend received %d DELETEs, want 1", len(dels))
	}
	if !owner.Healthy() {
		t.Fatal("stalled backend was ejected by a cancellation")
	}

	stalled.stalled.Store(false)
	posts := func() (n int64) {
		for _, f := range fakes {
			n += f.posts.Load()
		}
		return n
	}
	before := posts()
	job, err = gw.Submit(service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("computed cell never finished")
	}
	if v := job.View(false); v.State != service.JobDone {
		t.Fatalf("computed cell: %s (%s)", v.State, v.Error)
	}
	if n := posts() - before; n != 1 {
		t.Fatalf("computed cell cost %d POSTs, want 1", n)
	}
	for u, f := range fakes {
		if n := f.gets.Load(); n != 0 {
			t.Fatalf("backend %s served %d job GETs, want 0", u, n)
		}
	}
}
