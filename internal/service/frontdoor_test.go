package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/machine"
)

// maximalMachine is a valid machine at the cluster and unit caps, with
// every optional section set: the largest machine a spec can carry.
func maximalMachine() *machine.Config {
	cfg := machine.Baseline()
	cfg.Name = strings.Repeat("m", 64)
	cfg.Clusters = nil
	for i := 0; i < machine.MaxClusters; i++ {
		units := []machine.UnitSpec{{Kind: machine.IU, Latency: 1}, {Kind: machine.FPU, Latency: 1}}
		switch i {
		case 0:
			units[1].Kind = machine.MEM
		case 1:
			units[1].Kind = machine.BR
		}
		cfg.Clusters = append(cfg.Clusters, machine.ClusterSpec{Units: units, Registers: 64})
	}
	cfg.Faults.Seed = 1
	cfg.Dynamic = machine.DynAll
	return cfg
}

// TestSubmitBodyBound: the largest acceptable submission — a source at
// the 64 KiB cap, every byte written as a \u00XX escape, on a maximal
// machine, padded to exactly the body bound — is accepted; one byte
// more answers 413 before the spec is decoded.
func TestSubmitBodyBound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	maxSource := compiler.ServiceLimits().MaxSourceBytes
	src := testProgram + strings.Repeat(" ", maxSource-len(testProgram))
	var escaped strings.Builder
	for i := 0; i < len(src); i++ {
		fmt.Fprintf(&escaped, `\u%04x`, src[i])
	}
	mach, err := json.Marshal(maximalMachine())
	if err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf(`{"source":"%s","machine":%s}`, escaped.String(), mach)
	if len(spec) > maxBodyBytes {
		t.Fatalf("largest acceptable spec is %d bytes, over the %d-byte bound", len(spec), maxBodyBytes)
	}
	pad := strings.Repeat(" ", maxBodyBytes-len(spec))

	status, body := post(t, ts.URL+"/v1/programs", "", []byte(pad+spec))
	if status != http.StatusAccepted {
		t.Fatalf("spec of exactly %d bytes: status %d: %s", maxBodyBytes, status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Spec.Program.Source); got != maxSource {
		t.Fatalf("accepted source is %d bytes, want %d", got, maxSource)
	}
	status, body = post(t, ts.URL+"/v1/programs", "", []byte(pad+" "+spec))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("spec of %d bytes: status %d, want 413: %s", maxBodyBytes+1, status, body)
	}
}

// post sends body to url (with accept as the Accept header, when set)
// and returns the status and the whole response body.
func post(t *testing.T, url, accept string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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
	return resp.StatusCode, data
}

// TestInlineMachineUnknownKeys: a job whose inline machine misspells a
// key in any section is refused with 400 and an error naming the key's
// path, instead of running with that field at its default. The typos
// are the machine package's testdata, one per section.
func TestInlineMachineUnknownKeys(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	data, err := os.ReadFile(filepath.Join("..", "machine", "testdata", "unknown_keys.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var named struct{ Name string }
		if err := json.Unmarshal([]byte(line), &named); err != nil {
			t.Fatal(err)
		}
		body := `{"cell":{"bench":"fft","mode":"SEQ"},"machine":` + line + `}`
		status, resp := post(t, ts.URL+"/v1/jobs", "", []byte(body))
		want := "machine: " + named.Name + ": unknown field"
		if status != http.StatusBadRequest || !strings.Contains(string(resp), want) {
			t.Errorf("%s: status %d, body %s; want 400 naming %q", named.Name, status, resp, want)
		}
	}
}

// TestServeBoundedStop: Serve, stopped through its context while a
// handler never returns and the daemon never drains, gives each of its
// two stop steps the drain timeout and then returns.
func TestServeBoundedStop(t *testing.T) {
	const drain = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	stuck := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, h, stuck, drain, t.Logf) }()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	start := time.Now()
	stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * drain):
		t.Fatalf("Serve still running %s after its context ended", 10*drain)
	}
	if took := time.Since(start); took < 2*drain || took > 3*drain {
		t.Fatalf("Serve returned %s after its context ended, want about %s", took, 2*drain)
	}
}
