package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// Pseudo-process ids in the emitted trace: one "process" groups the
// function-unit tracks, the other the per-thread stall tracks.
const (
	tracePidUnits   = 1
	tracePidThreads = 2
)

// traceEvent is one record of the Chrome trace-event format ("X"
// complete events and "M" metadata), as consumed by chrome://tracing and
// Perfetto. Timestamps are in microseconds; the tracer maps one
// simulated cycle to one microsecond.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args any    `json:"args,omitempty"`
}

// issueArgs are a unit span's args; the field order matches the sorted
// keys encoding/json gives a map, so the bytes read like one.
type issueArgs struct {
	Op     string `json:"op"`
	Thread int    `json:"thread"`
}

// stallSpan is an open run of one stall classification for one thread,
// extended while adjacent spans keep the cause; n == 0 means none.
type stallSpan struct {
	cause    StallCause
	first, n int64
}

// JSONTracer is an Observer that records a machine-readable execution
// trace in Chrome trace-event format: one track per function unit (each
// issued operation is a span of the unit's pipeline occupancy) and one
// track per thread (contiguous spans of the thread's stall
// classification). Install it with WithObserver — which also enables
// stall attribution — and call Write after the run.
type JSONTracer struct {
	nopEvents
	units  []machine.UnitRef
	events []traceEvent
	// open is each thread's unfinished stall span, by thread ID.
	open []stallSpan
	// opText memoizes each static operation's text form.
	opText map[*isa.Op]string
}

// NewJSONTracer prepares a tracer for a machine configuration (the
// configuration provides the unit tracks).
func NewJSONTracer(cfg *machine.Config) *JSONTracer {
	tr := &JSONTracer{units: cfg.Units(), opText: map[*isa.Op]string{}}
	tr.meta("process_name", tracePidUnits, 0, "function units")
	tr.meta("process_name", tracePidThreads, 0, "threads")
	for _, u := range tr.units {
		tr.meta("thread_name", tracePidUnits, u.Global, fmt.Sprintf("u%d %s (cluster %d)", u.Global, u.Kind, u.Cluster))
	}
	return tr
}

func (tr *JSONTracer) meta(name string, pid, tid int, label string) {
	tr.events = append(tr.events, traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}})
}

// Spawn names the thread's track.
func (tr *JSONTracer) Spawn(_ int64, thread int, segment string) {
	tr.meta("thread_name", tracePidThreads, thread, fmt.Sprintf("t%d %s", thread, segment))
}

// Issue records one operation on its unit's track. Compute operations
// span their unit's pipeline latency; memory, branch, and thread
// operations span their single issue cycle.
func (tr *JSONTracer) Issue(cycle int64, unit, thread, _ int, op *isa.Op) {
	dur := int64(1)
	if op.Code.Pure() {
		dur = int64(tr.units[unit].Latency)
	}
	text, ok := tr.opText[op]
	if !ok {
		text = op.String()
		tr.opText[op] = text
	}
	tr.events = append(tr.events, traceEvent{
		Name: op.Code.String(), Ph: "X", Ts: cycle, Dur: dur,
		Pid: tracePidUnits, Tid: unit,
		Args: issueArgs{Op: text, Thread: thread},
	})
}

// Stall extends the thread's open span, or closes it and opens another.
func (tr *JSONTracer) Stall(thread int, cause StallCause, first, n int64) {
	for len(tr.open) <= thread {
		tr.open = append(tr.open, stallSpan{})
	}
	sp := &tr.open[thread]
	if sp.n > 0 && sp.cause == cause && sp.first+sp.n == first {
		sp.n += n
		return
	}
	if sp.n > 0 {
		tr.events = append(tr.events, sp.event(thread))
	}
	*sp = stallSpan{cause: cause, first: first, n: n}
}

func (sp stallSpan) event(thread int) traceEvent {
	return traceEvent{
		Name: sp.cause.String(), Ph: "X", Ts: sp.first, Dur: sp.n,
		Pid: tracePidThreads, Tid: thread,
	}
}

// Write emits the collected trace, open spans flushed in thread-ID
// order, as a JSON object with a "traceEvents" array sorted by
// timestamp (metadata first), ready for chrome://tracing or Perfetto.
// Event order is a function of the run alone, so the bytes are too.
func (tr *JSONTracer) Write(w io.Writer) error {
	events := append([]traceEvent(nil), tr.events...)
	for id, sp := range tr.open {
		if sp.n > 0 {
			events = append(events, sp.event(id))
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].Ts < events[j].Ts
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}
