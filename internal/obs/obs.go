// Package obs is the one place that knows the Prometheus text exposition
// format (version 0.0.4). It provides label-less counters, one-label
// counter and histogram families, and writers for series whose values
// are read at scrape time. Each family keeps its name and help text, so
// a registry declares them once and its WriteText is a list of writes.
//
// Counting never allocates once a label value has been seen: a counter
// is one atomic add, a labelled family one map update under a mutex.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// other is the label value a capped family folds new values into.
const other = "_other"

// Counter is a label-less counter.
type Counter struct {
	name, help string
	n          atomic.Int64
}

// NewCounter declares a label-less counter.
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Write renders the counter.
func (c *Counter) Write(w io.Writer) {
	SampledCounter(w, c.name, c.help).Int(c.Value())
}

// CounterVec is a counter family with one label.
type CounterVec struct {
	name, help, label string
	max               int // distinct label values kept; 0 is unbounded

	mu sync.Mutex
	n  map[string]int64
}

// NewCounterVec declares a counter family over one label. When max > 0,
// label values first seen after max distinct ones are counted under
// "_other", so a client-supplied value cannot grow the series set
// without bound.
func NewCounterVec(name, help, label string, max int) *CounterVec {
	return &CounterVec{name: name, help: help, label: label, max: max, n: map[string]int64{}}
}

// Inc adds one to the series labelled value.
func (c *CounterVec) Inc(value string) {
	c.mu.Lock()
	if _, ok := c.n[value]; !ok && c.max > 0 && len(c.n) >= c.max {
		value = other
	}
	c.n[value]++
	c.mu.Unlock()
}

// Value returns the count of the series labelled value.
func (c *CounterVec) Value(value string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[value]
}

// Write renders the family, series in label order.
func (c *CounterVec) Write(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := SampledCounter(w, c.name, c.help)
	for _, v := range sortedKeys(c.n) {
		s.Int(c.n[v], c.label, v)
	}
}

// HistogramVec is a fixed-bucket histogram family with one label.
type HistogramVec struct {
	name, help, label string
	bounds            []float64 // bucket upper bounds, ascending

	mu     sync.Mutex
	series map[string]*histogram
}

type histogram struct {
	counts []int64 // per bucket, non-cumulative; the last is +Inf
	sum    float64
}

// NewHistogramVec declares a histogram family over one label with the
// given ascending bucket upper bounds.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{name: name, help: help, label: label, bounds: bounds, series: map[string]*histogram{}}
}

// Observe records v in the series labelled value. Each bucket counts the
// observations at or below its bound.
func (h *HistogramVec) Observe(value string, v float64) {
	h.mu.Lock()
	s := h.series[value]
	if s == nil {
		s = &histogram{counts: make([]int64, len(h.bounds)+1)}
		h.series[value] = s
	}
	s.counts[sort.SearchFloat64s(h.bounds, v)]++
	s.sum += v
	h.mu.Unlock()
}

// Write renders the family in the cumulative bucket form.
func (h *HistogramVec) Write(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	header(w, h.name, h.help, "histogram")
	bucket := Series{w, h.name + "_bucket"}
	for _, v := range sortedKeys(h.series) {
		s := h.series[v]
		var cum int64
		for i, le := range h.bounds {
			cum += s.counts[i]
			bucket.Int(cum, h.label, v, "le", strconv.FormatFloat(le, 'g', -1, 64))
		}
		cum += s.counts[len(h.bounds)]
		bucket.Int(cum, h.label, v, "le", "+Inf")
		Series{w, h.name + "_sum"}.Float(s.sum, h.label, v)
		Series{w, h.name + "_count"}.Int(cum, h.label, v)
	}
}

// Series writes the samples of one family.
type Series struct {
	w    io.Writer
	name string
}

// Gauge writes the HELP and TYPE lines of a gauge family whose values
// are read at scrape time, and returns the writer for its samples.
func Gauge(w io.Writer, name, help string) Series {
	header(w, name, help, "gauge")
	return Series{w, name}
}

// SampledCounter is Gauge for a counter whose total is kept elsewhere,
// such as a cache's hit count.
func SampledCounter(w io.Writer, name, help string) Series {
	header(w, name, help, "counter")
	return Series{w, name}
}

// Int writes one integer sample. labels alternate label names and
// values.
func (s Series) Int(v int64, labels ...string) {
	s.write(strconv.FormatInt(v, 10), labels)
}

// Float writes one sample with six decimal places.
func (s Series) Float(v float64, labels ...string) {
	s.write(strconv.FormatFloat(v, 'f', 6, 64), labels)
}

// Bool writes 1 for true and 0 for false.
func (s Series) Bool(v bool) {
	if v {
		s.Int(1)
	} else {
		s.Int(0)
	}
}

// Map writes one sample per key of m, labelled label=key, in key order.
func (s Series) Map(label string, m map[string]int) {
	for _, k := range sortedKeys(m) {
		s.Int(int64(m[k]), label, k)
	}
}

func (s Series) write(value string, labels []string) {
	var b strings.Builder
	b.WriteString(s.name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escape(labels[i+1]))
		b.WriteByte('"')
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	io.WriteString(s.w, b.String())
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper applies the text format's only three label-value
// escapes; every other character, a tab included, is written as is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escape returns v as the body of a quoted label value. Valid UTF-8
// passes through unchanged; invalid bytes become U+FFFD, since the
// format is UTF-8 text.
func escape(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
