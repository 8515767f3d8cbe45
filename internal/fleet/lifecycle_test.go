package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pcoup/internal/service"
)

// TestCancelBeforeRunReleasesQueuedCells: a gateway job cancelled before
// its goroutine begins running it gives back every queued cell its
// tenant reserved at admission — one for a cell, one per cell for a
// sweep. A leaked reservation never drains, and under a
// max_queued_cells quota it would shed that tenant with 429 for good.
func TestCancelBeforeRunReleasesQueuedCells(t *testing.T) {
	backend := httptest.NewServer((&fakeBackend{}).handler())
	t.Cleanup(backend.Close)
	gw, _ := startGateway(t, []string{backend.URL}, nil)
	ten := gw.Tenants().Default()

	for _, tc := range []struct {
		name string
		spec service.JobSpec
	}{
		{"cell", service.JobSpec{Cell: &service.CellSpec{Bench: "fft", Mode: "SEQ"}}},
		{"sweep", service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"fft"}, MinIU: 1, MaxIU: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 100
			early := 0
			for i := 0; i < n; i++ {
				spec := tc.spec
				if spec.Sweep != nil {
					sw := *spec.Sweep
					spec.Sweep = &sw
				}
				job, err := gw.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := gw.jobs.Cancel(job.ID()); err != nil {
					t.Fatal(err)
				}
				<-job.Done()
				if v := job.View(false); v.State == service.JobCancelled && v.Started == nil {
					early++
				}
			}
			if early == 0 {
				t.Fatalf("none of %d jobs was cancelled before it ran", n)
			}
			// Jobs that began before the cancel landed release their cells
			// as the dispatcher drops them, so give those a moment.
			deadline := time.Now().Add(5 * time.Second)
			for ten.Queued() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d queued cells still reserved after %d cancelled jobs (%d before running)", ten.Queued(), n, early)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestFrontDoorParity runs one script against a pcserved and against a
// pcfleet over one pcserved. Both doors serve the same job lifecycle, so
// views, cancellation, 404s and listing answer alike, and the streams of
// cold jobs are byte-identical.
func TestFrontDoorParity(t *testing.T) {
	doors := []struct {
		name string
		open func(t *testing.T) string
	}{
		{"pcserved", func(t *testing.T) string {
			url, _, _ := startBackend(t, service.Options{Workers: 2})
			return url
		}},
		{"pcfleet", func(t *testing.T) string {
			url, _, _ := startBackend(t, service.Options{Workers: 2})
			_, ts := startGateway(t, []string{url}, nil)
			return ts.URL
		}},
	}
	cell := service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}}
	sweep := service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"fft"}, MinIU: 1, MaxIU: 2}}

	// transcript holds what each door answered that must match byte for
	// byte: the streams of the cold jobs and the 404 bodies.
	transcript := map[string][]byte{}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			base := door.open(t)
			var ids []string
			for _, tc := range []struct {
				spec  service.JobSpec
				cells int
			}{{cell, 0}, {sweep, 4}} {
				id := submitJob(t, base, tc.spec).ID
				ids = append(ids, id)
				v := waitJob(t, base, id)
				if v.State != service.JobDone || v.CacheHit || v.CellsDone != tc.cells || v.CellsTotal != tc.cells {
					t.Fatalf("job %s: state %s (%s), cache_hit %v, cells %d/%d; want done, cold, %d/%d",
						id, v.State, v.Error, v.CacheHit, v.CellsDone, v.CellsTotal, tc.cells, tc.cells)
				}
				if v.Created.IsZero() || v.Started == nil || v.Finished == nil || len(v.Result) == 0 {
					t.Fatalf("job %s: view lacks timestamps or result: %+v", id, v)
				}
				transcript[door.name] = append(transcript[door.name], streamBytes(t, base, id)...)
			}

			// A resubmission is served from cache, and the view says so.
			id := submitJob(t, base, cell).ID
			ids = append(ids, id)
			if v := waitJob(t, base, id); v.State != service.JobDone || !v.CacheHit {
				t.Fatalf("resubmitted cell: state %s, cache_hit %v; want done, true", v.State, v.CacheHit)
			}

			// Cancelling a finished job answers 200 and changes nothing.
			var v service.JobView
			apiJSON(t, "DELETE", base+"/v1/jobs/"+ids[0], nil, http.StatusOK, &v)
			if v.State != service.JobDone {
				t.Fatalf("DELETE of a finished job: state %s, want done", v.State)
			}
			apiJSON(t, "GET", base+"/v1/jobs/"+ids[0], nil, http.StatusOK, &v)
			if v.State != service.JobDone {
				t.Fatalf("after DELETE: state %s, want done", v.State)
			}

			for _, method := range []string{"GET", "DELETE"} {
				var body struct {
					Error string `json:"error"`
				}
				apiJSON(t, method, base+"/v1/jobs/no-such-job", nil, http.StatusNotFound, &body)
				if body.Error == "" {
					t.Fatalf("%s of an unknown job: 404 without an error body", method)
				}
				transcript[door.name] = append(transcript[door.name], body.Error+"\n"...)
			}

			var list []service.JobView
			apiJSON(t, "GET", base+"/v1/jobs", nil, http.StatusOK, &list)
			if len(list) != len(ids) {
				t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
			}
			for i, v := range list {
				if v.ID != ids[i] {
					t.Fatalf("list[%d] = %s, want %s (submission order)", i, v.ID, ids[i])
				}
			}
		})
	}
	if a, b := transcript["pcserved"], transcript["pcfleet"]; !bytes.Equal(a, b) {
		t.Fatalf("front doors differ\n--- pcserved\n%s--- pcfleet\n%s", a, b)
	}
}
