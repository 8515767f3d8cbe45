package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request or cell
// share a root: parent links lead from every span to it (0 = root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on. Off, it records nothing
// and costs a clock read per call site, so the untraced windows of a
// traced run execute the same code as a plain run.
type tracer struct {
	workload string
	epoch    time.Time
	on       atomic.Bool
	ids      atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// now is the monotonic clock reading spans are stamped with.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span id while tracing is on (0 otherwise), so children
// can name a parent before it ends.
func (t *tracer) id() int64 {
	if !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span reserved by id; id 0 (tracing was off
// when the span began) records nothing.
func (t *tracer) record(id, parent int64, name string, start, end int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: start, EndNS: end})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.snapshot()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes maps each span id to its duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		cur := s.StartNS // covered up to here
		for _, k := range kids {
			lo, hi := max(k.StartNS, cur), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}

// spanStats aggregates spans by name.
type spanStats struct {
	n           int
	total, self int64 // ns
}

func (s spanStats) meanMS() float64 { return ratio(float64(s.total), float64(s.n)) / 1e6 }
func (s spanStats) meanUS() float64 { return ratio(float64(s.total), float64(s.n)) / 1e3 }

func aggregate(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := map[string]spanStats{}
	for _, s := range spans {
		a := out[s.Name]
		a.n++
		a.total += s.EndNS - s.StartNS
		a.self += self[s.ID]
		out[s.Name] = a
	}
	return out
}
