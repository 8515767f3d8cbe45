package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestEscape(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{"a\tb", "a\tb"},
		{`a"b\c`, `a\"b\\c`},
		{"line\nbreak", `line\nbreak`},
		{"café", "café"},
		{"cut\xc3", "cut\uFFFD"},
	} {
		if got := escape(tc.in); got != tc.want {
			t.Errorf("escape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSeriesLabels(t *testing.T) {
	var buf bytes.Buffer
	g := Gauge(&buf, "g", "A gauge.")
	g.Int(3)
	g.Int(4, "tenant", "a\"b", "class", "batch")
	g.Float(2.0/3, "x", "y")
	g.Bool(true)
	want := "# HELP g A gauge.\n# TYPE g gauge\n" +
		"g 3\n" +
		"g{tenant=\"a\\\"b\",class=\"batch\"} 4\n" +
		"g{x=\"y\"} 0.666667\n" +
		"g 1\n"
	if buf.String() != want {
		t.Errorf("got\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestCounterVecCap: past max distinct label values, new values fold
// into "_other"; values seen before the cap keep counting.
func TestCounterVecCap(t *testing.T) {
	c := NewCounterVec("c_total", "Capped.", "tenant", 256)
	for i := 0; i < 257; i++ {
		c.Inc(fmt.Sprintf("t%03d", i))
	}
	c.Inc("t999")
	c.Inc("t000")
	if got := c.Value(other); got != 2 {
		t.Errorf("_other = %d, want 2", got)
	}
	if got := c.Value("t000"); got != 2 {
		t.Errorf("t000 = %d, want 2", got)
	}
	var buf bytes.Buffer
	c.Write(&buf)
	named, others := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, `c_total{tenant="_other"}`):
			others++
		case strings.HasPrefix(line, "c_total{"):
			named++
		}
	}
	if named != 256 || others != 1 {
		t.Errorf("%d named series and %d _other, want 256 and 1", named, others)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogramVec("h_seconds", "Latency.", "stage", []float64{0.5, 1})
	h.Observe("run", 0.5) // on a bound: counted at or below it
	h.Observe("run", 0.7)
	h.Observe("run", 3)
	var buf bytes.Buffer
	h.Write(&buf)
	want := "# HELP h_seconds Latency.\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{stage=\"run\",le=\"0.5\"} 1\n" +
		"h_seconds_bucket{stage=\"run\",le=\"1\"} 2\n" +
		"h_seconds_bucket{stage=\"run\",le=\"+Inf\"} 3\n" +
		"h_seconds_sum{stage=\"run\"} 4.200000\n" +
		"h_seconds_count{stage=\"run\"} 3\n"
	if buf.String() != want {
		t.Errorf("got\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestCountingDoesNotAllocate: the request path counts through these
// calls, so none may allocate once its series exists.
func TestCountingDoesNotAllocate(t *testing.T) {
	c := NewCounter("c_total", "C.")
	v := NewCounterVec("v_total", "V.", "state", 2)
	h := NewHistogramVec("h_seconds", "H.", "stage", []float64{1})
	v.Inc("a")
	v.Inc("b")
	h.Observe("run", 0)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		v.Inc("a")
		v.Inc("overflow") // folded into _other once the cap is reached
		h.Observe("run", 0.5)
	}); n != 0 {
		t.Errorf("counting allocates %.1f times per call", n)
	}
}
