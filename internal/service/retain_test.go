package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pcoup/internal/obs"
)

// walkLocked counts the held jobs by state the slow way, by visiting
// each one; callers hold t.mu.
func (t *JobTable) walkLocked() map[string]int {
	out := map[string]int{}
	for _, j := range t.byID {
		j.mu.Lock()
		out[string(j.state)]++
		j.mu.Unlock()
	}
	return out
}

// countsErrLocked reports how the kept counts differ from a walk of the
// held jobs, or more than retain finished jobs are held; callers hold
// t.mu.
func (t *JobTable) countsErrLocked(retain int) error {
	walk := t.walkLocked()
	if got := fmt.Sprint(t.counts); got != fmt.Sprint(walk) {
		return fmt.Errorf("counts %s, walk of the held jobs %s", got, fmt.Sprint(walk))
	}
	finished := 0
	for state, n := range walk {
		if JobState(state).Terminal() {
			finished += n
		}
	}
	if finished > retain || finished != len(t.finished) {
		return fmt.Errorf("%d finished jobs held (%d in the ring), retain %d", finished, len(t.finished), retain)
	}
	return nil
}

// TestJobTableCountsMatchWalk drives random concurrent Add, Begin,
// Cancel and Finish calls, on jobs shared by all callers, on a table
// that keeps few finished jobs. At every check and after all the calls,
// the per-state counts equal a walk of the held jobs. No unfinished job
// was dropped, no job that Cancel finished before execution was begun,
// and List returns exactly the held jobs in submission order.
func TestJobTableCountsMatchWalk(t *testing.T) {
	const retain, workers, steps = 8, 8, 600
	tab := &JobTable{Prefix: "t-", Retain: retain, Transitions: obs.NewCounterVec("t_total", "", "state", 0)}
	terminal := []JobState{JobDone, JobFailed, JobCancelled, JobBudgetExceeded}

	var mu sync.Mutex
	var all []*Job
	var begun sync.Map // IDs of the jobs Begin started
	stop := make(chan struct{})
	checked := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				checked <- n
				return
			default:
			}
			tab.mu.Lock()
			err := tab.countsErrLocked(retain)
			tab.mu.Unlock()
			if err != nil {
				t.Error(err)
				<-stop
				checked <- n
				return
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				mu.Lock()
				n := len(all)
				var job *Job
				if n > 0 {
					job = all[n-1-rng.Intn(min(n, 16))]
				}
				mu.Unlock()
				if job == nil || rng.Intn(3) == 0 {
					job, err := tab.Add(JobSpec{}, nil, "", nil)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					all = append(all, job)
					mu.Unlock()
					continue
				}
				switch rng.Intn(3) {
				case 0:
					if tab.Begin(job, func() {}) {
						begun.Store(job.id, true)
					}
				case 1:
					if _, err := tab.Cancel(job.id); err != nil && err != ErrNotFound {
						t.Error(err)
					}
				case 2:
					tab.Finish(job, terminal[rng.Intn(len(terminal))], nil, "")
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	t.Logf("%d jobs, %d concurrent checks", len(all), <-checked)

	tab.mu.Lock()
	if err := tab.countsErrLocked(retain); err != nil {
		t.Fatal(err)
	}
	if len(tab.order) > 2*len(tab.byID)+1 {
		t.Errorf("order holds %d entries for %d held jobs", len(tab.order), len(tab.byID))
	}
	held := len(tab.byID)
	tab.mu.Unlock()

	for _, job := range all {
		job.mu.Lock()
		state, errMsg := job.state, job.errMsg
		job.mu.Unlock()
		if _, err := tab.Get(job.id); err != nil && !state.Terminal() {
			t.Errorf("job %s dropped in state %s", job.id, state)
		}
		if _, ok := begun.Load(job.id); ok && errMsg == "cancelled before execution" {
			t.Errorf("job %s was begun, then finished as cancelled before execution", job.id)
		}
	}
	list := tab.List()
	if len(list) != held {
		t.Fatalf("List has %d jobs, the table holds %d", len(list), held)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List out of submission order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
	counts := tab.Counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != held {
		t.Fatalf("Counts %v sum to %d, the table holds %d", counts, total, held)
	}
}

// rawGet performs one request and returns the status, content type and
// body.
func rawGet(t *testing.T, method, url string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
}

// TestServerRetainsNewestFinished pushes five times Retain jobs through
// a Server one at a time. The table then holds only the Retain newest,
// its job gauge agrees, a dropped ID answers exactly as an unknown ID
// does on every job route, and a stream opened on the first job before
// it was dropped still completes. The journal records every finish, so
// a restart recovers nothing.
func TestServerRetainsNewestFinished(t *testing.T) {
	const retain = 4
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	gate := make(chan struct{})
	var once sync.Once
	srv, ts := newTestServer(t, Options{Workers: 1, JournalFile: journal, ExecHook: func(*Job) { once.Do(func() { <-gate }) }})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before newTestServer's shutdown
	srv.Jobs().Retain = retain

	first := submit(t, ts, cellSpec())
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	release()

	var ids []string
	for i := 0; i < 5*retain; i++ {
		ids = append(ids, submit(t, ts, cellSpec()).ID)
		if v := waitJob(t, ts, ids[i]); v.State != JobDone {
			t.Fatalf("job %s: %s (%s)", ids[i], v.State, v.Error)
		}
	}

	list := srv.List()
	if len(list) != retain {
		t.Fatalf("table holds %d jobs, want %d", len(list), retain)
	}
	for i, v := range list {
		if want := ids[len(ids)-retain+i]; v.ID != want {
			t.Fatalf("held job %d is %s, want %s (the newest finished)", i, v.ID, want)
		}
	}
	if v := metricValue(t, ts, `pcserved_jobs_current{state="done"}`); v != retain {
		t.Fatalf(`pcserved_jobs_current{state="done"} = %v, want %d`, v, retain)
	}

	for _, route := range []struct{ method, suffix string }{{"GET", ""}, {"DELETE", ""}, {"GET", "/stream"}} {
		dropped := rawGet(t, route.method, ts.URL+"/v1/jobs/"+first.ID+route.suffix)
		unknown := rawGet(t, route.method, ts.URL+"/v1/jobs/no-such-job"+route.suffix)
		if dropped != unknown || !strings.HasPrefix(dropped, "404 ") {
			t.Fatalf("%s %s of a dropped job answers %q, an unknown job %q", route.method, route.suffix, dropped, unknown)
		}
	}

	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n")); len(lines) != 2 || string(lines[1]) != `{"state":"done"}` {
		t.Fatalf("stream of the dropped job: %q, want its result and a done status", stream)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	reopened, pending, err := openJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	if len(pending) != 0 {
		t.Fatalf("journal holds %d unfinished jobs after every job finished, want 0", len(pending))
	}
}
