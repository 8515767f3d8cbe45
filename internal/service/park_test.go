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
	"pcoup/internal/sexpr"
)

// A queued program job parks the program its submission check lowered,
// so the worker only builds it, and the forms it parsed, so verification
// interprets them without parsing the source again. These tests pin when
// a job parks each and that no job the table retains still holds either
// once it runs or ends.

// unrollProgram lowers to 120,003 IR operations, far over the default
// parking bound, so its job never parks and its worker compiles the
// source.
const unrollProgram = "(program p (global out (array int 1)) (def (main) (set s 0) (unroll (a 0 120000) (set s (+ s a))) (aset out 0 s)))"

// unrollResult is unrollProgram's verified result payload, as the
// service produced it before programs were parked.
const unrollResult = `{"name":"p","mode":"Coupled","machine_sha256":"161f5891323fc7b396076e57c6507597dc40c777063a10b8545fa290eb29affb","cycles":120003,"ops":120003,"threads":1,"utilization":{"BR":0.000008333125005208204,"FPU":0,"IU":0.9999833337499896,"MEM":0.000008333125005208204},"globals":{"out":["7199940000"]},"verified":true}`

var (
	loweredType = reflect.TypeOf((*compiler.Lowered)(nil))
	nodeType    = reflect.TypeOf((*sexpr.Node)(nil))
	mutexType   = reflect.TypeOf(sync.Mutex{})
)

// holds reports whether a non-nil pointer of type want is reachable
// from v, unexported fields included (mutexes are skipped).
func holds(v reflect.Value, want reflect.Type, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Type() == want {
			return true
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return holds(v.Elem(), want, seen)
	case reflect.Interface:
		return !v.IsNil() && holds(v.Elem(), want, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Type() != mutexType && holds(v.Field(i), want, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if holds(v.Index(i), want, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if holds(it.Key(), want, seen) || holds(it.Value(), want, seen) {
				return true
			}
		}
	}
	return false
}

// jobHolds reports whether the job holds a pointer of type want anywhere.
func jobHolds(job *Job, want reflect.Type) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	return holds(reflect.ValueOf(job).Elem(), want, map[uintptr]bool{})
}

// parkedLowered and parkedForms report whether the job holds a lowered
// program, or a parse-tree node, anywhere.
func parkedLowered(job *Job) bool { return jobHolds(job, loweredType) }
func parkedForms(job *Job) bool   { return jobHolds(job, nodeType) }

// parked reports whether the job holds either.
func parked(job *Job) bool { return parkedLowered(job) || parkedForms(job) }

// assertNoneParked fails the test if any job the table retains holds a
// lowered program or a parse-tree node.
func assertNoneParked(t *testing.T, jobs *JobTable) {
	t.Helper()
	jobs.mu.Lock()
	all := append([]*Job(nil), jobs.order...)
	jobs.mu.Unlock()
	for _, job := range all {
		if parkedLowered(job) {
			t.Errorf("job %s (%s) holds a lowered program", job.id, job.View(false).State)
		}
		if parkedForms(job) {
			t.Errorf("job %s (%s) holds parsed forms", job.id, job.View(false).State)
		}
	}
}

// blockedServer starts a server whose workers hold every cell job until
// release is called, so jobs submitted behind a running cell job stay
// queued. A program job that still holds its lowered program or its
// forms once it runs fails the test.
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
			t.Errorf("running job %s holds its lowered program or its forms", job.id)
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

// TestParkFinishedJob: a queued program job parks its lowered program
// and its forms, the worker builds and verifies them into the result an
// unparked job computes, and the finished job holds nothing.
func TestParkFinishedJob(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	if srv.parkIROps != 1953 || srv.parkNodes != 390 {
		t.Fatalf("parking bounds %d IR ops, %d nodes at default limits and queue, want 1953 and 390", srv.parkIROps, srv.parkNodes)
	}
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, testProgram)
	if !parkedLowered(job) || !parkedForms(job) {
		t.Fatal("queued program job did not park its lowered program and its forms")
	}
	release()
	got := resultOf(t, ts, job)
	assertNoneParked(t, srv.jobs)

	// A queue this long parks nothing (both bounds round to 0), so its
	// worker compiles and interprets the source.
	ref, refTS := newTestServer(t, Options{Workers: 1, QueueCap: compiler.ServiceLimits().MaxIROps + 1})
	refJob := submitProgram(t, ref, refTS, testProgram)
	if want := resultOf(t, refTS, refJob); got != want {
		t.Errorf("parked job result\n%s\nwant the compiled-from-source result\n%s", got, want)
	}
}

// TestParkCancelQueued: cancelling a queued job drops its parked
// program and forms at once, before any worker takes the job.
func TestParkCancelQueued(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, testProgram)
	if !parkedLowered(job) || !parkedForms(job) {
		t.Fatal("queued program job did not park its lowered program and its forms")
	}
	if _, err := srv.jobs.Cancel(job.id); err != nil {
		t.Fatal(err)
	}
	if parked(job) {
		t.Error("job cancelled while queued still holds its lowered program or its forms")
	}
	release()
	waitJob(t, ts, blocker.ID)
	assertNoneParked(t, srv.jobs)
}

// TestParkQueueFull: a program submission refused for a full queue
// leaves no job holding its lowered program or its forms.
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
// compiled and verified from source by its worker; recovery parks
// nothing.
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
		if !parkedLowered(job) || !parkedForms(job) {
			t.Fatalf("queued job %s did not park its lowered program and its forms", job.id)
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

// TestParkUnrollFallback: a program over the IR parking bound parks no
// lowered program (its small tree still parks), and its worker compiles
// it from source to the same bytes as before parking existed.
func TestParkUnrollFallback(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, unrollProgram)
	if parkedLowered(job) {
		t.Fatal("a program over the IR parking bound was parked")
	}
	if !parkedForms(job) {
		t.Fatal("a program within the node parking bound parked no forms")
	}
	release()
	if got := resultOf(t, ts, job); got != unrollResult {
		t.Errorf("unroll result\n%s\nwant\n%s", got, unrollResult)
	}
	assertNoneParked(t, srv.jobs)
}

// TestParkFormsBound: a program whose tree is over the node parking
// bound parks its lowered program but not its forms, and its worker
// verifies it from source to the result a server that parks nothing
// computes.
func TestParkFormsBound(t *testing.T) {
	srv, ts, release := blockedServer(t, Options{Workers: 1})
	var src string
	for seed := int64(0); ; seed++ {
		src = progfuzz.GenerateOpts(1_000_000+seed, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true})
		forms, err := sexpr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if countNodes(forms) > srv.parkNodes {
			break
		}
	}
	blocker := submit(t, ts, cellSpec())
	waitState(t, srv, blocker.ID, JobRunning)
	job := submitProgram(t, srv, ts, src)
	if parkedForms(job) {
		t.Fatal("a tree over the node parking bound was parked")
	}
	if !parkedLowered(job) {
		t.Fatal("a program within the IR parking bound parked no lowered program")
	}
	release()
	got := resultOf(t, ts, job)
	assertNoneParked(t, srv.jobs)

	ref, refTS := newTestServer(t, Options{Workers: 1, QueueCap: compiler.ServiceLimits().MaxIROps + 1})
	refJob := submitProgram(t, ref, refTS, src)
	if parked(refJob) {
		t.Fatal("a server whose bounds round to 0 parked work")
	}
	if want := resultOf(t, refTS, refJob); got != want {
		t.Errorf("result\n%s\nwant the unparked result\n%s", got, want)
	}
}

// TestParkNodeCount: countNodes counts what sexpr's MaxNodes limit
// counts, so the parking bound and the parse limit measure one quantity.
func TestParkNodeCount(t *testing.T) {
	for _, src := range []string{testProgram, unrollProgram, progfuzz.Generate(2)} {
		forms, err := sexpr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		n := countNodes(forms)
		if _, err := sexpr.ParseLimits(src, sexpr.Limits{MaxNodes: n}); err != nil {
			t.Errorf("%d nodes counted, but a parse limited to them fails: %v", n, err)
		}
		if _, err := sexpr.ParseLimits(src, sexpr.Limits{MaxNodes: n - 1}); err == nil {
			t.Errorf("%d nodes counted, but a parse limited to one fewer succeeds", n)
		}
	}
}
