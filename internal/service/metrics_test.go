package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
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

// checkGolden compares a rendering with testdata/name after
// normalization; -update rewrites the golden file with got verbatim.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

// TestMetricsExposition pins every pcserved family's name, type, help,
// labels, buckets and value format against a golden rendering.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	for _, s := range []string{"queued", "queued", "queued", "running", "running", "done", "failed"} {
		m.jobs.Inc(s)
	}
	m.stages.Observe("queue", 0.0004) // first bucket
	m.stages.Observe("queue", 0.07)   // middle bucket
	m.stages.Observe("run", 0.5)      // exactly on a bound
	m.stages.Observe("run", 400)      // +Inf
	m.TenantJob("zed")
	m.TenantJob("alice")
	m.TenantJob("alice")
	m.TenantJob("") // anonymous: not attributed
	m.TenantHit("alice")
	m.TenantHit("zed")
	m.journalRecovered.Inc()
	m.retriesExhausted.Add(2)
	m.panics.Inc()

	var buf bytes.Buffer
	m.WriteText(&buf, Gauges{
		QueueDepth: 3, Inflight: 2, Workers: 4,
		JobsByState:  map[string]int{"running": 2, "queued": 3, "done": 7},
		CacheEntries: 5, CacheBytes: 12345,
		CacheHits: 9, CacheMisses: 3, CacheEvictions: 1,
		Accepting: true,
	})
	checkGolden(t, "metrics.prom", buf.Bytes())
}

// expositionLine is the text format's line grammar: a comment, or a
// sample whose label values use only the escapes \\, \" and \n.
var expositionLine = regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*")*\})? (\S+))$`)

// TestMetricsLabelEscaping: client-chosen tenant names reach /metrics as
// label values. Every scraped line must still parse, and a name longer
// than the cap is cut on a rune boundary.
func TestMetricsLabelEscaping(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	long := strings.Repeat("x", 63) + "é" // 65 bytes: the cap falls inside é
	for _, tc := range []struct{ path, tenant, want string }{
		{"/v1/jobs", "a\tb", "a\tb"},
		{"/v1/jobs", `a"b\c`, `a"b\c`},
		{"/v1/jobs", long, long[:63]},
		{"/v1/programs", long + "y", long[:63]},
		{"/v1/jobs", "bad\xffutf8", "bad\uFFFDutf8"},
	} {
		var body []byte
		if tc.path == "/v1/jobs" {
			body, _ = json.Marshal(JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "SEQ"}})
		} else {
			body, _ = json.Marshal(ProgramRequest{ProgramSpec: ProgramSpec{Source: testProgram}})
		}
		req, err := http.NewRequest("POST", ts.URL+tc.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-PC-Tenant", tc.tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s as %q: status %d, %v", tc.path, tc.tenant, resp.StatusCode, err)
		}
		if view.Tenant != tc.want {
			t.Errorf("POST %s as %q: tenant %q, want %q", tc.path, tc.tenant, view.Tenant, tc.want)
		}
		waitJob(t, ts, view.ID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		m := expositionLine.FindStringSubmatch(line)
		if !utf8.ValidString(line) || m == nil {
			t.Errorf("line breaks the text format: %q", line)
			continue
		}
		if v := m[len(m)-1]; v != "" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("sample value %q: %v", v, err)
			}
		}
	}
	for _, want := range []string{"{tenant=\"a\tb\"} 1", `{tenant="a\"b\\c"} 1`, `{tenant="` + long[:63] + `"} 2`} {
		if !strings.Contains(string(text), "pcserved_tenant_jobs_total"+want+"\n") {
			t.Errorf("scrape lacks pcserved_tenant_jobs_total%s", want)
		}
	}
}

// TestTenantLabelCap: past maxTenantLabels distinct tenants, new names
// are counted under "_other" in both per-tenant families.
func TestTenantLabelCap(t *testing.T) {
	m := NewMetrics()
	for i := 0; i <= maxTenantLabels; i++ {
		m.TenantJob(fmt.Sprintf("t%03d", i))
		m.TenantHit(fmt.Sprintf("t%03d", i))
	}
	m.TenantJob("late")
	m.TenantJob("t000")
	var buf bytes.Buffer
	m.WriteText(&buf, Gauges{})
	for family, wantOther := range map[string]string{
		"pcserved_tenant_jobs_total": "2", "pcserved_tenant_cache_hits_total": "1",
	} {
		named := 0
		other := ""
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, family+`{tenant="`); ok {
				if v, ok := strings.CutPrefix(rest, `_other"} `); ok {
					other = v
				} else {
					named++
				}
			}
		}
		if named != maxTenantLabels || other != wantOther {
			t.Errorf("%s: %d named series and _other = %q, want %d and %s", family, named, other, maxTenantLabels, wantOther)
		}
	}
}
