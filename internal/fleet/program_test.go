package fleet

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pcoup/internal/compiler"
	"pcoup/internal/progfuzz"
	"pcoup/internal/service"
)

const fleetTestProgram = `
(program fleetsmoke
  (global a (array int 4) (init 3 1 4 1))
  (global out (array int 1))
  (def (main)
    (set s 0)
    (for (i 0 4) (set s (+ s (aref a i))))
    (aset out 0 s)))`

// postProgram submits a program through the gateway's /v1/programs and
// returns status plus view.
func postProgram(t *testing.T, base string, req service.ProgramRequest) (int, service.JobView) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/programs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view service.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding view: %v", err)
		}
	}
	return resp.StatusCode, view
}

// TestProgramThroughGateway routes a program job through a two-backend
// fleet: it must complete, an identical resubmission must be a cache hit
// on the same content-key owner, a recursion bomb must be rejected at
// the gateway with 422, and a budget blowout must surface as
// budget_exceeded (not failed, not retried across backends).
func TestProgramThroughGateway(t *testing.T) {
	b1, _, _ := startBackend(t, service.Options{Workers: 2})
	b2, _, _ := startBackend(t, service.Options{Workers: 2})
	_, gwts := startGateway(t, []string{b1, b2}, nil)

	// Run and verify the result arrives intact through the scatter path.
	status, view := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: fleetTestProgram, Verify: true},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, gwts.URL, view.ID)
	if final.State != service.JobDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	var res service.ProgramResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Globals["out"]; len(got) != 1 || got[0] != "9" {
		t.Fatalf("out = %v, want [9]", got)
	}

	// Identical resubmission: the content key routes it to the same
	// backend, whose cache serves it (CacheHit through the gateway).
	status, again := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: fleetTestProgram, Verify: true},
	})
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	refinal := waitJob(t, gwts.URL, again.ID)
	if refinal.State != service.JobDone || !refinal.CacheHit {
		t.Fatalf("resubmit: state %s hit=%v, want done hit=true", refinal.State, refinal.CacheHit)
	}
	if string(refinal.Result) != string(final.Result) {
		t.Fatal("cached payload differs through the gateway")
	}

	// A nesting bomb is rejected at the gateway's own validation: 422,
	// and no backend ever sees it.
	status, _ = postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: strings.Repeat("(", 50_000)},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bomb status %d, want 422", status)
	}

	// A budget blowout keeps its distinct terminal state through the
	// gateway and is not retried on the second backend.
	long := `
(program spin
  (global out (array int 1))
  (def (main)
    (set s 0)
    (for (i 0 100000) (set s (+ s i)))
    (aset out 0 s)))`
	status, slow := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: long},
		Options:     service.SimOptions{MaxCycles: 500},
	})
	if status != http.StatusAccepted {
		t.Fatalf("budget submit status %d", status)
	}
	bfinal := waitJob(t, gwts.URL, slow.ID)
	if bfinal.State != service.JobBudgetExceeded {
		t.Fatalf("state %s (%s), want budget_exceeded", bfinal.State, bfinal.Error)
	}
}

// TestParkGatewaySpecs: the gateway lowers every program it accepts as
// its own check, but keeps none of that IR. No spec it retains holds a
// lowered program after the jobs ran, and neither does any spec its
// backend retains.
func TestParkGatewaySpecs(t *testing.T) {
	b1, backend, _ := startBackend(t, service.Options{Workers: 2})
	gw, gwts := startGateway(t, []string{b1}, nil)
	for _, src := range []string{fleetTestProgram, progfuzz.Generate(2)} {
		status, view := postProgram(t, gwts.URL, service.ProgramRequest{ProgramSpec: service.ProgramSpec{Source: src, Verify: true}})
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		if final := waitJob(t, gwts.URL, view.ID); final.State != service.JobDone {
			t.Fatalf("state %s (%s)", final.State, final.Error)
		}
	}
	for name, views := range map[string][]service.JobView{"gateway": gw.List(), "backend": backend.List()} {
		if len(views) != 2 {
			t.Fatalf("%s retains %d jobs, want 2", name, len(views))
		}
		for _, v := range views {
			if holdsLowered(reflect.ValueOf(v.Spec)) {
				t.Errorf("%s job %s: retained spec holds a lowered program", name, v.ID)
			}
		}
	}
}

var loweredType = reflect.TypeOf((*compiler.Lowered)(nil))

// holdsLowered reports whether a non-nil *compiler.Lowered is reachable
// from v, unexported fields included.
func holdsLowered(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		return v.Type() == loweredType || holdsLowered(v.Elem())
	case reflect.Interface:
		return !v.IsNil() && holdsLowered(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if holdsLowered(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if holdsLowered(v.Index(i)) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if holdsLowered(it.Key()) || holdsLowered(it.Value()) {
				return true
			}
		}
	}
	return false
}
