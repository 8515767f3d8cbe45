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

// fakeBackend is a scripted pcserved stand-in: jobs "finish" instantly
// unless the backend is stalled, in which case streams hang until the
// client gives up. It counts stream requests and records DELETEs so
// tests can assert that cancellations reach the backend.
type fakeBackend struct {
	stalled atomic.Bool
	streams atomic.Int64

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
		f.mu.Lock()
		f.nextID++
		id := fmt.Sprintf("x-%06d", f.nextID)
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: id, State: service.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobView{
			ID: r.PathValue("id"), State: service.JobDone, CacheHit: false,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		f.streams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		if f.stalled.Load() {
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush() // headers out, then hang like a straggler
			}
			<-r.Context().Done()
			return
		}
		fmt.Fprintf(w, "{\"v\":1}\n{\"state\":\"done\"}\n")
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deletes = append(f.deletes, r.PathValue("id"))
		f.mu.Unlock()
		json.NewEncoder(w).Encode(service.JobView{ID: r.PathValue("id"), State: service.JobCancelled})
	})
	return mux
}

// TestCancelReachesStalledBackend: cancelling a gateway job whose cell
// is stuck on a backend that stalls (but still passes health probes)
// finishes the job promptly, DELETEs the backend job exactly once, and
// leaves the slow backend admitted — slow is not dead.
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
	for stalled.streams.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cell never reached its stalled owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := gw.Cancel(job.id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished while its backend stalled")
	}
	if v := job.view(false); v.State != service.JobCancelled {
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
}
