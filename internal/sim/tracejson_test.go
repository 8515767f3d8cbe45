package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pcoup/internal/isa"
)

// traceDoc mirrors the Chrome trace-event envelope for shape checks.
type traceDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
	DisplayUnit string           `json:"displayTimeUnit"`
}

// traceBytes runs p with the JSON tracer attached and returns the
// written trace.
func traceBytes(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	tr := NewJSONTracer(miniMachine())
	s, err := New(miniMachine(), p, WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// tracedProgram is a single thread issuing two dependent adds, a store,
// and a halt.
func tracedProgram() *isa.Program {
	return prog(&isa.ThreadCode{Name: "main", Instrs: []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(2))),
		word(opAdd(uIU0, r(0, 1), isa.Reg(r(0, 0)), isa.ImmInt(3))),
		word(opStore(uMEM0, isa.Reg(r(0, 1)), 8)),
		word(opHalt()),
	}})
}

// tiedFinish is a program whose four workers, held off their units by
// the higher-priority worker hog, all start issuing on one cycle and
// keep issuing to their (staggered) halts, so the run ends with four
// open stall spans that start on that cycle.
func tiedFinish() *isa.Program {
	ops := []func() *isa.Op{
		func() *isa.Op { return opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1)) },
		func() *isa.Op { return opAdd(uIU1, r(1, 0), isa.ImmInt(1), isa.ImmInt(1)) },
		func() *isa.Op { return opStore(uMEM0, isa.ImmInt(1), 8) },
		func() *isa.Op { return opStore(uMEM1, isa.ImmInt(1), 9) },
	}
	seg := func(name string, words ...isa.Instruction) *isa.ThreadCode {
		return &isa.ThreadCode{Name: name, Instrs: append(words, word(opHalt()))}
	}
	var hog []isa.Instruction
	for i := 0; i < 6; i++ {
		hog = append(hog, word(ops[0](), ops[1](), ops[2](), ops[3]()))
	}
	forks := []isa.Instruction{word(forkOp(1))}
	segs := []*isa.ThreadCode{nil, seg("hog", hog...)}
	for w, op := range ops {
		forks = append(forks, word(forkOp(len(segs))))
		var words []isa.Instruction
		for i := 0; i < 3+w; i++ {
			words = append(words, word(op()))
		}
		segs = append(segs, seg(fmt.Sprintf("w%d", w), words...))
	}
	segs[0] = seg("main", forks...)
	return prog(segs...)
}

// runTraced traces tracedProgram and returns the parsed trace document.
func runTraced(t *testing.T) traceDoc {
	t.Helper()
	return parseTrace(t, traceBytes(t, tracedProgram()))
}

func parseTrace(t *testing.T, data []byte) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v\n%s", err, data)
	}
	return doc
}

// TestJSONTraceShape asserts the emitted Chrome trace-event JSON is
// well-formed and byte-deterministic: a rerun writes identical bytes
// (threads still open at the end are flushed in ID order), it parses,
// every event carries the required keys, complete events have positive
// durations, metadata precedes spans, and span timestamps are monotonic
// (the viewer's assumption after Write's sort).
func TestJSONTraceShape(t *testing.T) {
	for i, p := range []*isa.Program{tracedProgram(), contended(), tiedFinish()} {
		data := traceBytes(t, p)
		for rerun := 0; rerun < 4; rerun++ {
			if again := traceBytes(t, p); !bytes.Equal(again, data) {
				t.Fatalf("program %d: rerun wrote a different trace:\n%s\n%s", i, data, again)
			}
		}
		checkTraceShape(t, parseTrace(t, data))
	}
}

func checkTraceShape(t *testing.T, doc traceDoc) {
	t.Helper()
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	seenSpan := false
	var lastTs float64
	var spans, metas int
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event %d: missing ph: %v", i, ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key].(float64); !ok {
				t.Fatalf("event %d: missing %s: %v", i, key, ev)
			}
		}
		switch ph {
		case "M":
			metas++
			if seenSpan {
				t.Errorf("event %d: metadata after span events", i)
			}
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Errorf("metadata event %d has no args: %v", i, ev)
			}
		case "X":
			spans++
			ts, ok := ev["ts"].(float64)
			if !ok {
				t.Fatalf("span event %d: missing ts: %v", i, ev)
			}
			if ts < 0 {
				t.Errorf("span event %d: negative ts %v", i, ts)
			}
			if seenSpan && ts < lastTs {
				t.Errorf("span event %d: ts %v below previous %v (not monotonic)", i, ts, lastTs)
			}
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 1 {
				t.Errorf("span event %d: dur %v, want >= 1", i, ev["dur"])
			}
			lastTs = ts
			seenSpan = true
		default:
			t.Errorf("event %d: unexpected phase %q", i, ph)
		}
	}
	if spans == 0 {
		t.Error("trace has no span (ph=X) events")
	}
	if metas == 0 {
		t.Error("trace has no metadata (ph=M) events")
	}
}

// TestJSONTraceContent pins the semantic content for the known program:
// unit tracks carry the issued opcodes, thread tracks carry stall
// classifications, and track-naming metadata covers every unit.
func TestJSONTraceContent(t *testing.T) {
	doc := runTraced(t)
	unitOps := map[string]int{}
	threadSpans := 0
	namedTracks := 0
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		pid, _ := ev["pid"].(float64)
		switch {
		case ev["ph"] == "M" && name == "thread_name":
			namedTracks++
		case ev["ph"] == "X" && int(pid) == tracePidUnits:
			unitOps[name]++
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Errorf("unit span %v lacks args", ev)
				continue
			}
			if _, ok := args["thread"]; !ok {
				t.Errorf("unit span %v lacks issuing thread", ev)
			}
		case ev["ph"] == "X" && int(pid) == tracePidThreads:
			threadSpans++
		}
	}
	// The program issues two adds, a store, and a halt.
	if unitOps["add"] != 2 && unitOps["ADD"] != 2 && unitOps[isa.OpAdd.String()] != 2 {
		t.Errorf("expected 2 add spans, got %v", unitOps)
	}
	if threadSpans == 0 {
		t.Error("no per-thread classification spans emitted")
	}
	// 5 unit tracks + 1 thread track.
	if namedTracks < 6 {
		t.Errorf("expected >= 6 named tracks, got %d", namedTracks)
	}
}
