package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testProgram is a small race-free program with a known output.
const testProgram = `
(program smoke
  (global a (array int 4) (init 1 2 3 4))
  (global out (array int 2))
  (def (main)
    (set s 0)
    (for (i 0 4) (set s (+ s (aref a i))))
    (aset out 0 s)
    (fork (aset out 1 (* 2 21)))
    (join)))`

// postProgram submits one ProgramRequest and returns the HTTP status
// plus the decoded job view (valid only on 202).
func postProgram(t *testing.T, ts *httptest.Server, req ProgramRequest) (int, JobView) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/programs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding view: %v", err)
		}
	}
	return resp.StatusCode, view
}

// TestProgramJobEndToEnd submits a program over POST /v1/programs,
// checks the computed globals, and verifies an identical resubmission is
// a cache hit with byte-identical payload.
func TestProgramJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: testProgram, Verify: true}})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, ts, view.ID)
	if final.State != JobDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
	var res ProgramResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Globals["out"]; len(got) != 2 || got[0] != "10" || got[1] != "42" {
		t.Fatalf("out = %v, want [10 42]", got)
	}
	if !res.Verified {
		t.Fatal("result not marked verified")
	}
	if res.Threads < 2 {
		t.Fatalf("threads = %d, want >= 2 (main + fork)", res.Threads)
	}

	// Identical resubmission — different formatting, same canonical
	// forms — must be served from the cache.
	reformatted := strings.ReplaceAll(testProgram, "\n", " \n ") + " ; trailing comment\n"
	status, again := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: reformatted, Verify: true}})
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	refinal := waitJob(t, ts, again.ID)
	if refinal.State != JobDone || !refinal.CacheHit {
		t.Fatalf("resubmit: state %s hit=%v, want done hit=true", refinal.State, refinal.CacheHit)
	}
	if string(refinal.Result) != string(final.Result) {
		t.Fatal("cached payload differs from original")
	}
}

// TestProgramNestingBomb422 submits a parser recursion bomb: it must be
// rejected at submission with 422, not crash the daemon or occupy a
// worker.
func TestProgramNestingBomb422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bomb := strings.Repeat("(", 100_000)
	status, _ := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: bomb}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("nesting bomb: status %d, want 422", status)
	}
	// The daemon still serves.
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: testProgram}})
	if status != http.StatusAccepted {
		t.Fatalf("follow-up submit status %d", status)
	}
	if final := waitJob(t, ts, view.ID); final.State != JobDone {
		t.Fatalf("follow-up state %s", final.State)
	}
}

// TestProgramOverCap422 covers the remaining limit dimensions: oversized
// source, a forall-static thread explosion, and an unrolling IR bomb all
// answer 422 with a limit message.
func TestProgramOverCap422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		src  string
	}{
		{"bytes", "(program p (def (main) (set x " + strings.Repeat("1", 70_000) + ")))"},
		{"threads", `
(program p
  (global a (array int 4096))
  (def (main) (forall-static (i 0 4096) (aset a i i))))`},
		{"irops", `
(program p
  (global out (array int 1))
  (def (main)
    (unroll (a 0 100) (unroll (b 0 100) (unroll (c 0 100)
      (aset out 0 (+ (aref out 0) 1)))))))`},
		{"memwords", `
(program p
  (global big (array int 9000000))
  (def (main) (aset big 0 1)))`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _ := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: c.src}})
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("%s: status %d, want 422", c.name, status)
			}
		})
	}
}

// TestProgramBudgetExceeded runs a long loop under a tiny cycle budget:
// the job must land in the distinct budget_exceeded terminal state, not
// failed.
func TestProgramBudgetExceeded(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	long := `
(program spin
  (global out (array int 1))
  (def (main)
    (set s 0)
    (for (i 0 100000) (set s (+ s i)))
    (aset out 0 s)))`
	status, view := postProgram(t, ts, ProgramRequest{
		ProgramSpec: ProgramSpec{Source: long},
		Options:     SimOptions{MaxCycles: 500},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, ts, view.ID)
	if final.State != JobBudgetExceeded {
		t.Fatalf("state %s (%s), want budget_exceeded", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "cycles") {
		t.Fatalf("error %q does not mention cycles", final.Error)
	}
}

// TestPanicIsolation injects a panic into one job's execution: that job
// must fail with a typed message, pcserved_panics_total must increment,
// and the daemon must keep serving subsequent jobs.
func TestPanicIsolation(t *testing.T) {
	srv, ts := newTestServer(t, Options{
		Workers: 2,
		ExecHook: func(job *Job) {
			if job.spec.Program != nil && strings.Contains(job.spec.Program.Source, "boom") {
				panic("injected compiler crash")
			}
		},
	})

	boom := `
(program boom
  (global out (array int 1))
  (def (main) (aset out 0 1)))`
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: boom}})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, ts, view.ID)
	if final.State != JobFailed {
		t.Fatalf("state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panic") {
		t.Fatalf("error %q does not mention the panic", final.Error)
	}
	if got := metricValue(t, ts, "pcserved_panics_total"); got != 1 {
		t.Fatalf("pcserved_panics_total = %v, want 1", got)
	}

	// The worker that recovered is still alive and runs the next job.
	status, view = postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: testProgram}})
	if status != http.StatusAccepted {
		t.Fatalf("follow-up submit status %d", status)
	}
	if final := waitJob(t, ts, view.ID); final.State != JobDone {
		t.Fatalf("follow-up state %s (%s)", final.State, final.Error)
	}
	_ = srv
}

// TestProgramSpecValidation exercises the submit-time rejections that
// are plain 400s (shape errors) versus 422s (program content).
func TestProgramSpecValidation(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	// Program + cell is a shape error, not a program error.
	_, err := srv.Submit(JobSpec{
		Program: &ProgramSpec{Source: testProgram},
		Cell:    &CellSpec{Bench: "fft", Mode: "coupled"},
	})
	var pe *ProgramError
	if err == nil || errors.As(err, &pe) {
		t.Fatalf("program+cell: err = %v, want plain validation error", err)
	}

	// Unknown mode and empty source are program errors (422 path).
	for _, spec := range []ProgramSpec{
		{Source: testProgram, Mode: "warp"},
		{Source: "   "},
		{Source: "(program p (def (main) (frobnicate x)))"},
	} {
		_, err := srv.Submit(JobSpec{Program: &spec})
		if !errors.As(err, &pe) {
			t.Fatalf("spec %+v: err = %v, want ProgramError", spec, err)
		}
	}
}

// TestProgramKeyStability pins the content key against accidental
// drift: same canonical program, different formatting, same key — and
// every knob change moves the key.
func TestProgramKeyStability(t *testing.T) {
	key := func(p *ProgramSpec) string {
		t.Helper()
		if _, err := p.normalize(nil); err != nil {
			t.Fatal(err)
		}
		k, err := ProgramContentKey(p, nil, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := &ProgramSpec{Source: testProgram, Mode: "coupled"}
	if _, err := ProgramContentKey(base, nil, SimOptions{}); err == nil {
		t.Fatal("unnormalized spec got a content key")
	}
	k1 := key(base)
	k2 := key(&ProgramSpec{Source: "; c\n" + strings.ReplaceAll(testProgram, "\n", "\n "), Mode: "coupled"})
	if k1 != k2 {
		t.Fatal("formatting changed the content key")
	}
	variants := []*ProgramSpec{
		{Source: testProgram, Mode: "seq"},
		{Source: testProgram, Mode: "coupled", DisableOpt: true},
		{Source: testProgram, Mode: "coupled", Verify: true},
		{Source: testProgram, Mode: "coupled", AutoUnroll: 8},
	}
	seen := map[string]bool{k1: true}
	for i, v := range variants {
		k := key(v)
		if seen[k] {
			t.Fatalf("variant %d collided with a previous key", i)
		}
		seen[k] = true
	}
}

// TestProgramCompileDeadline pins that normalize applies a compile
// deadline at all (a regression guard for the untrusted boundary — the
// actual bomb rejection is covered by the irops test above).
func TestProgramCompileDeadline(t *testing.T) {
	if programCompileTimeout <= 0 || programCompileTimeout > 30*time.Second {
		t.Fatalf("programCompileTimeout = %v out of sane range", programCompileTimeout)
	}
}

// TestProgramWorkerCompileDeadline: a program too large to park on its
// queued job (one basic block of 100,000 read-modify-write statements,
// about 300,000 IR ops, which take about half a second to compile on a
// 2-vCPU host) is compiled by the worker from source under the job's
// deadline. The compile stops at that deadline, in lowering or in the
// back half, and fails the job, instead of running to completion.
func TestProgramWorkerCompileDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	const timeout = 200 * time.Millisecond
	src := "(program u (global out (array int 1)) (def (main) (unroll (a 0 100000) (aset out 0 (+ (aref out 0) 1)))))"
	if srv.parkIROps >= 300_000 {
		t.Fatalf("parkIROps %d would park the program", srv.parkIROps)
	}
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: src}, TimeoutMS: timeout.Milliseconds()})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, ts, view.ID)
	if final.State != JobFailed || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("state %s (%s), want failed with a compile deadline", final.State, final.Error)
	}
	if run := final.Finished.Sub(*final.Started); run > timeout+2*time.Second {
		t.Errorf("job ran %v past a %v deadline", run, timeout)
	}
}
