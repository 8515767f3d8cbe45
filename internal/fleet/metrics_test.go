package fleet

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pcoup/internal/obs"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// normalizeExposition makes two Prometheus text renderings comparable:
// sample lines are sorted within each family, and a family with no
// samples is dropped along with its HELP and TYPE lines. Family order,
// names, help strings, label names and value formats must still match.
func normalizeExposition(text string) string {
	var out, family, samples []string
	flush := func() {
		if len(samples) > 0 {
			sort.Strings(samples)
			out = append(append(out, family...), samples...)
		}
		family, samples = nil, nil
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			flush()
			family = append(family, line)
		case strings.HasPrefix(line, "# "):
			family = append(family, line)
		default:
			samples = append(samples, line)
		}
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsExposition pins every pcfleet family's name, type, help,
// labels and value format against a golden rendering of a gateway
// whose backends are listed out of sorted order.
func TestMetricsExposition(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Spec{
		{Name: "zed", Key: "zk", Weight: 1, Class: tenant.Batch},
		{Name: "alice", Key: "ak", Weight: 8, Class: tenant.Interactive},
	})
	if err != nil {
		t.Fatal(err)
	}
	const a, b = "http://a.test:1", "http://b.test:1"
	gw, err := New(Options{Pool: PoolOptions{Backends: []string{b, a}}, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}

	// Live state sampled at scrape time.
	for url, st := range map[string]struct {
		healthy         bool
		inflight, queue int
	}{b: {true, 2, 5}, a: {false, 1, 0}} {
		be := gw.pool.backends[url]
		be.healthy, be.inflight, be.load.QueueDepth = st.healthy, st.inflight, st.queue
		gw.disp.queues[url].depth = st.queue + 1
	}
	for _, ten := range reg.All() {
		ten.Admit(3)
		ten.TryAcquireInflight()
	}
	for _, s := range []service.JobState{service.JobRunning, service.JobDone, service.JobDone, service.JobQueued} {
		gw.order = append(gw.order, &fleetJob{state: s})
	}

	// Counters.
	m := gw.Metrics()
	for _, s := range []string{"queued", "queued", "running", "done"} {
		m.jobs.Inc(s)
	}
	for _, url := range []string{b, b, a} {
		m.dispatched.Inc(url)
	}
	m.Affinity(true)
	m.Affinity(true)
	m.Affinity(false)
	for _, c := range []*obs.Counter{m.spills, m.failovers,
		m.probeFailures, m.ejections, m.readmissions, m.peerFillHits} {
		c.Inc()
	}
	m.steals.Add(3)
	for _, class := range []string{"batch", "batch", "interactive"} {
		m.shed.Inc(class)
	}

	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "metrics.prom")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := normalizeExposition(string(got)), normalizeExposition(string(want)); g != w {
		t.Errorf("exposition differs from %s\n--- got\n%s--- want\n%s", path, g, w)
	}
}
