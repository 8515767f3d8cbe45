package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/progfuzz"
)

// A queued program job parks the program its submission check lowered,
// so the worker only builds it. These tests pin when a job parks one and
// that no job the table retains still holds one once it runs or ends.

// unrollProgram lowers to 120,003 IR operations, far over the default
// parking bound, so its job never parks and its worker compiles the
// source.
const unrollProgram = "(program p (global out (array int 1)) (def (main) (set s 0) (unroll (a 0 120000) (set s (+ s a))) (aset out 0 s)))"

// unrollResult is unrollProgram's verified result payload, as the
// service produced it before programs were parked.
const unrollResult = `{"name":"p","mode":"Coupled","machine_sha256":"161f5891323fc7b396076e57c6507597dc40c777063a10b8545fa290eb29affb","cycles":120003,"ops":120003,"threads":1,"utilization":{"BR":0.000008333125005208204,"FPU":0,"IU":0.9999833337499896,"MEM":0.000008333125005208204},"globals":{"out":["7199940000"]},"verified":true}`

var (
	loweredType = reflect.TypeOf((*compiler.Lowered)(nil))
	mutexType   = reflect.TypeOf(sync.Mutex{})
)

// holdsLowered reports whether a non-nil *compiler.Lowered is reachable
// from v, unexported fields included (mutexes are skipped).
func holdsLowered(v reflect.Value, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Type() == loweredType {
			return true
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return holdsLowered(v.Elem(), seen)
	case reflect.Interface:
		return !v.IsNil() && holdsLowered(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Type() != mutexType && holdsLowered(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if holdsLowered(v.Index(i), seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if holdsLowered(it.Key(), seen) || holdsLowered(it.Value(), seen) {
				return true
			}
		}
	}
	return false
}

// parked reports whether the job holds a lowered program anywhere.
func parked(job *Job) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	return holdsLowered(reflect.ValueOf(job).Elem(), map[uintptr]bool{})
}

// assertNoneParked fails the test if any job the table retains holds a
// lowered program.
func assertNoneParked(t *testing.T, jobs *JobTable) {
	t.Helper()
	jobs.mu.Lock()
	all := append([]*Job(nil), jobs.order...)
	jobs.mu.Unlock()
	for _, job := range all {
		if parked(job) {
			t.Errorf("job %s (%s) holds a lowered program", job.id, job.View(false).State)
		}
	}
}

// blockedServer starts a server whose workers hold every cell job until
// release is called, so jobs submitted behind a running cell job stay
// queued. A program job that still holds its lowered program once it
// runs fails the test.
func blockedServer(t *testing.T, opts Options) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	opts.ExecHook = func(job *Job) {
		switch {
		case job.spec.Cell != nil:
			<-gate
		case parked(job):
			t.Errorf("running job %s holds its lowered program", job.id)
		}
	}
	srv, ts = newTestServer(t, opts)
	t.Cleanup(release) // runs before newTestServer's shutdown
	return srv, ts, release
}

// waitState polls until the job reaches state.
func waitState(t *testing.T, srv *Server, id string, state JobState) *Job {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		job, err := srv.jobs.Get(id)
		if err == nil && job.View(false).State == state {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitProgram posts src with verify on and returns the queued job.
func submitProgram(t *testing.T, srv *Server, ts *httptest.Server, src string) *Job {
	t.Helper()
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: src, Verify: true}})
	if status != http.StatusAccepted {
		t.Fatalf("program submission status %d", status)
	}
	job, err := srv.jobs.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// resultOf waits for the job and returns its result payload.
func resultOf(t *testing.T, ts *httptest.Server, job *Job) string {
	t.Helper()
	if v := waitJob(t, ts, job.id); v.State != JobDone {
		t.Fatalf("job %s: %s (%s)", job.id, v.State, v.Error)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	return string(job.result)
}

// TestParkFinishedJob: a queued program job parks its lowered program,
// the worker builds it into the result an unparked job computes, and the
// finished job holds nothing.
func TestParkFinishedJob(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	if srv.parkIROps != 1953 {
		t.Fatalf("parking bound %d IR ops at default limits and queue, want 1953", srv.parkIROps)
	}
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, testProgram)
	if !parked(job) {
		t.Fatal("queued program job parked no lowered program")
	}
	release()
	got := resultOf(t, ts, job)
	assertNoneParked(t, srv.jobs)

	// A queue this long parks nothing (the bound rounds to 0 ops), so
	// its worker compiles the source.
	ref, refTS := newTestServer(t, Options{Workers: 1, QueueCap: compiler.ServiceLimits().MaxIROps + 1})
	refJob := submitProgram(t, ref, refTS, testProgram)
	if want := resultOf(t, refTS, refJob); got != want {
		t.Errorf("parked job result\n%s\nwant the compiled-from-source result\n%s", got, want)
	}
}

// TestParkCancelQueued: cancelling a queued job drops its parked program
// at once, before any worker takes the job.
func TestParkCancelQueued(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, testProgram)
	if !parked(job) {
		t.Fatal("queued program job parked no lowered program")
	}
	if _, err := srv.jobs.Cancel(job.id); err != nil {
		t.Fatal(err)
	}
	if parked(job) {
		t.Error("job cancelled while queued still holds its lowered program")
	}
	release()
	waitJob(t, ts, blocker.ID)
	assertNoneParked(t, srv.jobs)
}

// TestParkQueueFull: a program submission refused for a full queue
// leaves no job holding its lowered program.
func TestParkQueueFull(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1, QueueCap: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	submit(t, ts, cellSpec()) // fills the queue
	_, err := srv.Submit(JobSpec{Program: &ProgramSpec{Source: testProgram}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission to a full queue: %v, want ErrQueueFull", err)
	}
	assertNoneParked(t, srv.jobs)
	release()
}

// TestParkJournalRecovery: a program job replayed from the journal is
// compiled from source by its worker; recovery parks nothing.
func TestParkJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		if err := j.submit("j-000001", cellSpec(), "", 0); err != nil {
			t.Fatal(err)
		}
		if err := j.submit("j-000002", JobSpec{Program: &ProgramSpec{Source: testProgram, Verify: true}}, "", 0); err != nil {
			t.Fatal(err)
		}
	})
	srv, ts, release := blockedServer(t, Options{Workers: 1, JournalFile: path, RetryBackoff: time.Millisecond})
	assertNoneParked(t, srv.jobs)
	release()
	job, err := srv.jobs.Get("j-000002")
	if err != nil {
		t.Fatal(err)
	}
	resultOf(t, ts, job)
	assertNoneParked(t, srv.jobs)
}

// TestParkShutdownDrain: a graceful shutdown runs the parked jobs still
// queued, and none holds its program afterwards.
func TestParkShutdownDrain(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	jobs := []*Job{submitProgram(t, srv, ts, testProgram), submitProgram(t, srv, ts, progfuzz.Generate(1))}
	for _, job := range jobs {
		if !parked(job) {
			t.Fatalf("queued job %s parked no lowered program", job.id)
		}
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, job := range jobs {
		if v := job.View(false); v.State != JobDone {
			t.Errorf("drained job %s: %s (%s), want done", job.id, v.State, v.Error)
		}
	}
	assertNoneParked(t, srv.jobs)
}

// TestParkUnrollFallback: a program over the parking bound is not
// parked, and its worker compiles it from source to the same bytes as
// before parking existed.
func TestParkUnrollFallback(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, unrollProgram)
	if parked(job) {
		t.Fatal("a program over the parking bound was parked")
	}
	release()
	if got := resultOf(t, ts, job); got != unrollResult {
		t.Errorf("unroll result\n%s\nwant\n%s", got, unrollResult)
	}
	assertNoneParked(t, srv.jobs)
}
