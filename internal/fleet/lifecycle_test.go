package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pcoup/internal/machine"
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
// pcfleet over one pcserved. Both doors serve the same job lifecycle and
// the same submission path, so views, cancellation, 404s, listing and
// every refusal answer alike, and the streams of cold jobs, streaming
// POSTs included, are byte-identical. Preset "p" is a pcserved preset at
// the first door and a backend-only preset (PresetNames) at the second.
// Each door keeps four finished jobs, so its fifth drops the first, whose
// ID then answers every job route exactly as an unknown ID does.
func TestFrontDoorParity(t *testing.T) {
	const retain = 4
	presets := service.Options{Workers: 2, Presets: map[string]*machine.Config{"p": machine.Mix(2, 1)}}
	doors := []struct {
		name string
		open func(t *testing.T) (string, func(context.Context) error)
	}{
		{"pcserved", func(t *testing.T) (string, func(context.Context) error) {
			url, srv, _ := startBackend(t, presets)
			srv.Jobs().Retain = retain
			return url, srv.Shutdown
		}},
		{"pcfleet", func(t *testing.T) (string, func(context.Context) error) {
			url, _, _ := startBackend(t, presets)
			gw, ts := startGateway(t, []string{url}, func(o *Options) { o.PresetNames = []string{"p"} })
			gw.jobs.Retain = retain
			return ts.URL, gw.Shutdown
		}},
	}
	cell := service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}}
	sweep := service.JobSpec{Sweep: &service.SweepSpec{Benches: []string{"fft"}, MinIU: 1, MaxIU: 2}}
	typo := bytes.Replace(mustJSON(t, machine.Baseline()), []byte(`"hit_latency"`), []byte(`"miss_rat": 0.1, "hit_latency"`), 1)
	// A machine the validator accepts but with no FPU, and a program with
	// a float multiply: the compile is refused at submission.
	noFPU := machine.Baseline()
	noFPU.Clusters = []machine.ClusterSpec{
		{Units: []machine.UnitSpec{{Kind: machine.IU, Latency: 1}, {Kind: machine.MEM, Latency: 1}}},
		{Units: []machine.UnitSpec{{Kind: machine.BR, Latency: 1}}},
	}
	floatProg := mustJSON(t, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: "(program f (global x (array float 2)) (def (main) (aset x 1 (* (aref x 0) 2.5))))"},
		Machine:     noFPU,
	})
	refusals := []struct {
		route, body string
		status      int
	}{
		{"/v1/jobs", `{"cell":`, http.StatusBadRequest},
		{"/v1/jobs", `{"cel":{"bench":"fft","mode":"SEQ"}}`, http.StatusBadRequest},
		{"/v1/jobs", `{"cell":{"bench":"fft","mode":"SEQ"},"machine":` + string(typo) + `}`, http.StatusBadRequest},
		{"/v1/jobs", `{"cell":{"bench":"fft","mode":"SEQ"},"preset":"p","timeout_ms":-1}`, http.StatusBadRequest},
		{"/v1/programs", `{"source":"(program"}`, http.StatusUnprocessableEntity},
		{"/v1/programs", string(floatProg), http.StatusUnprocessableEntity},
		{"/v1/programs", `{"source":"` + strings.Repeat("a", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}

	// transcript holds what each door answered that must match byte for
	// byte: the streams of the cold jobs, and the status and body of
	// every 404 and refused submission.
	transcript := map[string][]byte{}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			base, shutdown := door.open(t)
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

			// A cold cell as a streaming POST: 200, the job named in
			// X-PC-Job, then the job's stream.
			resp, data := postRaw(t, base+"/v1/jobs", "application/x-ndjson", `{"cell":{"bench":"fft","mode":"SEQ"}}`)
			id := resp.Header.Get("X-PC-Job")
			if resp.StatusCode != http.StatusOK || id == "" {
				t.Fatalf("streaming POST: status %d, X-PC-Job %q: %s", resp.StatusCode, id, data)
			}
			ids = append(ids, id)
			transcript[door.name] = append(transcript[door.name], data...)

			// A resubmission is served from cache, and the view says so.
			id = submitJob(t, base, cell).ID
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

			// A fifth finished job drops the first: its ID answers as an
			// unknown one does, on every job route.
			id = submitJob(t, base, cell).ID
			ids = append(ids, id)
			waitJob(t, base, id)
			for _, route := range []struct{ method, suffix string }{{"GET", ""}, {"DELETE", ""}, {"GET", "/stream"}} {
				dropped := rawCall(t, route.method, base+"/v1/jobs/"+ids[0]+route.suffix)
				unknown := rawCall(t, route.method, base+"/v1/jobs/no-such-job"+route.suffix)
				if !bytes.Equal(dropped, unknown) || !bytes.HasPrefix(dropped, []byte("404 ")) {
					t.Fatalf("%s %s of a dropped job answers %q, an unknown job %q", route.method, route.suffix, dropped, unknown)
				}
				transcript[door.name] = append(transcript[door.name], dropped...)
			}
			ids = ids[1:]

			for _, r := range refusals {
				resp, data := postRaw(t, base+r.route, "", r.body)
				if resp.StatusCode != r.status {
					t.Fatalf("POST %s %.60s: status %d, want %d: %s", r.route, r.body, resp.StatusCode, r.status, data)
				}
				transcript[door.name] = fmt.Appendf(transcript[door.name], "%d %s", resp.StatusCode, data)
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

			// After Shutdown both doors refuse new work with one 503.
			if err := shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			resp, data = postRaw(t, base+"/v1/jobs", "", `{"cell":{"bench":"fft","mode":"SEQ"}}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("submit after Shutdown: status %d, want 503: %s", resp.StatusCode, data)
			}
			transcript[door.name] = fmt.Appendf(transcript[door.name], "%d %s", resp.StatusCode, data)
		})
	}
	if a, b := transcript["pcserved"], transcript["pcfleet"]; !bytes.Equal(a, b) {
		t.Fatalf("front doors differ\n--- pcserved\n%s--- pcfleet\n%s", a, b)
	}
}

// rawCall sends one bodiless request and returns its status, content
// type and body as one transcript line.
func rawCall(t *testing.T, method, url string) []byte {
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
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "%d %s %s", resp.StatusCode, resp.Header.Get("Content-Type"), data)
}

// TestGatewayRetainsNewestFinished pushes five times Retain jobs through
// a gateway one at a time. Its table then holds only the Retain newest,
// pcfleet_jobs_current agrees, a dropped ID answers as an unknown ID
// does, and a stream opened on the first job before it was dropped still
// completes byte for byte like the backend's stream of the same cell.
func TestGatewayRetainsNewestFinished(t *testing.T) {
	const retain = 4
	gate := make(chan struct{})
	var once sync.Once
	url, srv, _ := startBackend(t, service.Options{Workers: 1, ExecHook: func(*service.Job) { once.Do(func() { <-gate }) }})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before the backend's shutdown
	srv.Jobs().Retain = retain
	gw, ts := startGateway(t, []string{url}, nil)
	gw.jobs.Retain = retain
	cell := service.JobSpec{Cell: &service.CellSpec{Bench: "matrix", Mode: "SEQ"}}

	first := submitJob(t, ts.URL, cell)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	release()

	var ids []string
	for i := 0; i < 5*retain; i++ {
		ids = append(ids, submitJob(t, ts.URL, cell).ID)
		if v := waitJob(t, ts.URL, ids[i]); v.State != service.JobDone {
			t.Fatalf("job %s: %s (%s)", ids[i], v.State, v.Error)
		}
	}
	list := gw.List()
	if len(list) != retain {
		t.Fatalf("gateway holds %d jobs, want %d", len(list), retain)
	}
	for i, v := range list {
		if want := ids[len(ids)-retain+i]; v.ID != want {
			t.Fatalf("held job %d is %s, want %s (the newest finished)", i, v.ID, want)
		}
	}
	if n := len(srv.List()); n > retain {
		t.Fatalf("backend holds %d jobs, want at most %d", n, retain)
	}
	if v := metricValue(t, ts.URL, `pcfleet_jobs_current{state="done"}`); v != retain {
		t.Fatalf(`pcfleet_jobs_current{state="done"} = %v, want %d`, v, retain)
	}
	for _, route := range []struct{ method, suffix string }{{"GET", ""}, {"DELETE", ""}, {"GET", "/stream"}} {
		dropped := rawCall(t, route.method, ts.URL+"/v1/jobs/"+first.ID+route.suffix)
		unknown := rawCall(t, route.method, ts.URL+"/v1/jobs/no-such-job"+route.suffix)
		if !bytes.Equal(dropped, unknown) || !bytes.HasPrefix(dropped, []byte("404 ")) {
			t.Fatalf("%s %s of a dropped job answers %q, an unknown job %q", route.method, route.suffix, dropped, unknown)
		}
	}

	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, want := postRaw(t, url+"/v1/jobs", "application/x-ndjson", `{"cell":{"bench":"matrix","mode":"SEQ"}}`)
	want = bytes.Replace(want, []byte(`,"cache_hit":true}`), []byte(`}`), 1)
	if !bytes.Equal(stream, want) {
		t.Fatalf("stream of the dropped job:\n%s\nwant the backend's cold stream:\n%s", stream, want)
	}
}

// postRaw POSTs body to url, with accept as the Accept header when set,
// and returns the response and its whole body.
func postRaw(t *testing.T, url, accept, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentSubmitsShareSpecs: callers may share one *CellSpec, one
// *SweepSpec and one *ProgramSpec across concurrent submissions to
// either daemon. Each submission normalizes its own copy, so under -race
// no write to the shared specs shows, and the caller's values stay as
// written: a lower-case mode, a sweep with its defaults unfilled, a
// program with no mode.
func TestConcurrentSubmitsShareSpecs(t *testing.T) {
	url, srv, _ := startBackend(t, service.Options{Workers: 2})
	gw, _ := startGateway(t, []string{url}, nil)
	cell := &service.CellSpec{Bench: "matrix", Mode: "seq"}
	sweep := &service.SweepSpec{Benches: []string{"matrix"}, MinIU: 1, MaxIU: 1}
	prog := &service.ProgramSpec{Source: fleetTestProgram}
	specs := []service.JobSpec{{Cell: cell}, {Sweep: sweep}, {Program: prog}}
	submit := []func(service.JobSpec) (*service.Job, error){srv.Submit, gw.Submit}

	const rounds = 3
	jobs := make(chan *service.Job, rounds*len(specs)*len(submit))
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		for _, spec := range specs {
			for _, sub := range submit {
				wg.Add(1)
				go func() {
					defer wg.Done()
					job, err := sub(spec)
					if err != nil {
						t.Error(err)
						return
					}
					jobs <- job
				}()
			}
		}
	}
	wg.Wait()
	close(jobs)
	for job := range jobs {
		<-job.Done()
		if v := job.View(false); v.State != service.JobDone {
			t.Errorf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
	}
	if *cell != (service.CellSpec{Bench: "matrix", Mode: "seq"}) {
		t.Errorf("shared cell spec became %+v", *cell)
	}
	if sweep.Mode != "" || sweep.MinFPU != 0 || sweep.MaxFPU != 0 {
		t.Errorf("shared sweep spec became %+v", *sweep)
	}
	if prog.Mode != "" {
		t.Errorf("shared program spec's mode became %q", prog.Mode)
	}
}
