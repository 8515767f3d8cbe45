package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pcoup/internal/service"
)

type connKey struct{}

// connCounter tallies the TCP connections one backend accepts, telling
// the pool's readyz prober (its own client, its own connections) apart
// from the gateway's dispatch and peer-fill traffic.
type connCounter struct {
	mu    sync.Mutex
	conns map[net.Conn]bool // accepted connection -> served /readyz
}

// dispatchConns counts accepted connections that never served /readyz.
func (c *connCounter) dispatchConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, probe := range c.conns {
		if !probe {
			n++
		}
	}
	return n
}

// startCountedBackend boots one real pcserved whose listener counts
// StateNew connections.
func startCountedBackend(t *testing.T) (string, *connCounter) {
	t.Helper()
	srv := service.New(service.Options{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c := &connCounter{conns: map[net.Conn]bool{}}
	h := srv.Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			c.mu.Lock()
			c.conns[r.Context().Value(connKey{}).(net.Conn)] = true
			c.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(conn net.Conn, s http.ConnState) {
		if s == http.StateNew {
			c.mu.Lock()
			c.conns[conn] = false
			c.mu.Unlock()
		}
	}
	ts.Config.ConnContext = func(ctx context.Context, conn net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, conn)
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts.URL, c
}

// TestDispatchReusesConnections: 200 program jobs, every one a cache
// miss (so both peer-fill probes miss), driven through the gateway by 8
// concurrent submitters, open at most BackendConcurrency+2 connections
// per backend. A probe miss that closes its connection unread, or a
// transport that keeps too few idle connections, dials once per request
// instead.
func TestDispatchReusesConnections(t *testing.T) {
	var urls []string
	counters := map[string]*connCounter{}
	for i := 0; i < 2; i++ {
		u, c := startCountedBackend(t)
		urls = append(urls, u)
		counters[u] = c
	}
	gw, _ := startGateway(t, urls, nil)

	const submitters, perSubmitter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				// A distinct initial value per job: a distinct content key.
				src := fmt.Sprintf(`
(program reuse
  (global a (array int 2) (init %d %d))
  (global out (array int 1))
  (def (main) (aset out 0 (+ (aref a 0) (aref a 1)))))`, s, i)
				job, err := gw.Submit(service.JobSpec{Program: &service.ProgramSpec{Source: src}})
				if err != nil {
					errs <- err
					return
				}
				<-job.Done()
				if v := job.View(false); v.State != service.JobDone || v.CacheHit {
					errs <- fmt.Errorf("job %s: %s hit=%v (%s)", v.ID, v.State, v.CacheHit, v.Error)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	limit := gw.opts.BackendConcurrency + 2
	for u, c := range counters {
		n := c.dispatchConns()
		t.Logf("backend %s: %d gateway connections", u, n)
		if n > limit {
			t.Errorf("backend %s accepted %d gateway connections for %d jobs, want <= %d",
				u, n, submitters*perSubmitter, limit)
		}
	}
}
