package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// postStreaming sends a streaming POST (Accept: application/x-ndjson)
// and returns the response with its body unread.
func postStreaming(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// streamingSubmit runs a streaming POST to completion and returns the
// job ID from X-PC-Job plus the whole NDJSON body.
func streamingSubmit(t *testing.T, url string, body []byte) (string, []byte) {
	t.Helper()
	resp := postStreaming(t, url, body)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming POST: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("streaming POST content type %q", ct)
	}
	id := resp.Header.Get("X-PC-Job")
	if id == "" {
		t.Fatal("streaming POST carries no X-PC-Job header")
	}
	return id, data
}

// lastLine returns the final line of an NDJSON body.
func lastLine(data []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	return lines[len(lines)-1]
}

// TestStreamingSubmitMatchesStream: the body of a streaming POST is
// byte for byte what GET /v1/jobs/{id}/stream sends for the same job,
// for a sweep on /v1/jobs and for a program on /v1/programs.
func TestStreamingSubmitMatchesStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	sweep, _ := json.Marshal(JobSpec{Sweep: &SweepSpec{Benches: []string{"matrix"}, MinIU: 1, MaxIU: 2}})
	program, _ := json.Marshal(ProgramRequest{ProgramSpec: ProgramSpec{Source: testProgram, Verify: true}})
	for _, tc := range []struct {
		name, path string
		body       []byte
		lines      int
	}{
		{"sweep", "/v1/jobs", sweep, 4 + 1},
		{"program", "/v1/programs", program, 1 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, got := streamingSubmit(t, ts.URL+tc.path, tc.body)
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			want, _ := io.ReadAll(resp.Body)
			if !bytes.Equal(got, want) {
				t.Fatalf("streaming POST body differs from GET stream:\nPOST: %q\n GET: %q", got, want)
			}
			if n := strings.Count(string(got), "\n"); n != tc.lines {
				t.Fatalf("%d lines, want %d:\n%s", n, tc.lines, got)
			}
			if last := lastLine(got); last != `{"state":"done"}` {
				t.Fatalf("status line %s", last)
			}
		})
	}
}

// TestStreamingSubmitHeaderBeforeRun: X-PC-Job reaches the client while
// the job still waits in the queue, so a caller can cancel a job it has
// not yet seen start.
func TestStreamingSubmitHeaderBeforeRun(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	srv, ts := newTestServer(t, Options{Workers: 1, ExecHook: func(*Job) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	}})
	blocker := submit(t, ts, JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "SEQ"}})
	<-entered

	body, _ := json.Marshal(JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "SEQ"}})
	resp := postStreaming(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusOK {
		close(release)
		t.Fatalf("streaming POST: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-PC-Job")
	job, err := srv.jobs.Get(id)
	if err != nil {
		close(release)
		t.Fatalf("X-PC-Job %q: %v", id, err)
	}
	if v := job.View(false); v.State != JobQueued {
		close(release)
		t.Fatalf("job %s is %s when its ID arrived, want queued", id, v.State)
	}

	close(release)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if last := lastLine(data); last != `{"state":"done"}` {
		t.Fatalf("status line %s", last)
	}
	if v := waitJob(t, ts, blocker.ID); v.State != JobDone {
		t.Fatalf("blocker: %s (%s)", v.State, v.Error)
	}
}

// TestStreamingSubmitCacheHit: a resubmission's status line reports the
// cache hit; a fresh job's line omits the field.
func TestStreamingSubmitCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body, _ := json.Marshal(JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "TPE"}})
	_, fresh := streamingSubmit(t, ts.URL+"/v1/jobs", body)
	if last := lastLine(fresh); last != `{"state":"done"}` {
		t.Fatalf("fresh status line %s", last)
	}
	_, again := streamingSubmit(t, ts.URL+"/v1/jobs", body)
	if last := lastLine(again); last != `{"state":"done","cache_hit":true}` {
		t.Fatalf("resubmission status line %s", last)
	}
	if !bytes.Equal(bytes.SplitN(fresh, []byte("\n"), 2)[0], bytes.SplitN(again, []byte("\n"), 2)[0]) {
		t.Fatal("cached payload line differs from the fresh one")
	}
}

// TestStreamingSubmitErrorCodes: a streaming POST is refused with the
// same codes as the 202 path — 400 for a bad spec, 422 for a rejected
// program, 503 while draining.
func TestStreamingSubmitErrorCodes(t *testing.T) {
	bomb, _ := json.Marshal(JobSpec{Program: &ProgramSpec{Source: strings.Repeat("(", 100_000)}})
	cell, _ := json.Marshal(JobSpec{Cell: &CellSpec{Bench: "fft", Mode: "SEQ"}})

	_, ts := newTestServer(t, Options{Workers: 1})
	draining := New(Options{Workers: 1})
	if err := draining.Start(); err != nil {
		t.Fatal(err)
	}
	if err := draining.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	drainingTS := httptest.NewServer(draining.Handler())
	t.Cleanup(drainingTS.Close)

	for _, tc := range []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"bad spec", ts.URL, []byte(`{}`), http.StatusBadRequest},
		{"rejected program", ts.URL, bomb, http.StatusUnprocessableEntity},
		{"draining", drainingTS.URL, cell, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apiJSON(t, "POST", tc.url+"/v1/jobs", tc.body, tc.want, nil)
			resp := postStreaming(t, tc.url+"/v1/jobs", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("streaming POST: status %d, want %d", resp.StatusCode, tc.want)
			}
			if id := resp.Header.Get("X-PC-Job"); id != "" {
				t.Fatalf("refused submission named job %q", id)
			}
		})
	}
}
