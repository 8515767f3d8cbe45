package sim

import (
	"fmt"
	"io"

	"pcoup/internal/isa"
)

// Observer receives the kernel's events; TextTrace, JSONTracer, Timeline,
// and InterleaveRecorder are Observers. Observing never changes a run or
// stops the event core from skipping: issue, writeback, and spawn happen
// only on executed cycles, and a skipped stretch arrives as stall spans.
type Observer interface {
	// Issue: thread issued op on global unit slot unit; win is the op's
	// dynamic issue window offset, or -1 under in-order issue.
	Issue(cycle int64, unit, thread, win int, op *isa.Op)
	// Writeback: a result was written to thread's register dst.
	Writeback(cycle int64, thread int, dst isa.RegRef, val isa.Value)
	// Spawn: a new thread runs the named code segment.
	Spawn(cycle int64, thread int, segment string)
	// Stall: thread's classification (CauseIssued included) was cause
	// for the n cycles from first. Sent only with stall attribution on,
	// in cycle order per thread; adjacent spans may share a cause.
	Stall(thread int, cause StallCause, first, n int64)
}

// WithObserver installs o; every installed observer receives every
// event, in installation order. A JSONTracer also enables the stall
// attribution that feeds its thread tracks.
func WithObserver(o Observer) Option {
	return func(s *Sim) {
		if _, ok := o.(*JSONTracer); ok {
			s.ensureAttrib()
		}
		s.obs = append(s.obs, o)
	}
}

// nopEvents supplies no-op methods for the events an Observer ignores.
type nopEvents struct{}

func (nopEvents) Writeback(int64, int, isa.RegRef, isa.Value) {}
func (nopEvents) Spawn(int64, int, string)                    {}
func (nopEvents) Stall(int, StallCause, int64, int64)         {}

// TextTrace writes a line per issue and per writeback (pcsim -trace).
type TextTrace struct {
	nopEvents
	w io.Writer
}

// NewTextTrace returns a text trace writing to w.
func NewTextTrace(w io.Writer) *TextTrace { return &TextTrace{w: w} }

func (tt *TextTrace) Issue(cycle int64, unit, thread, win int, op *isa.Op) {
	if win < 0 {
		fmt.Fprintf(tt.w, "[%6d] t%d u%d issue %s\n", cycle, thread, unit, op)
		return
	}
	fmt.Fprintf(tt.w, "[%6d] t%d u%d issue %s (win+%d)\n", cycle, thread, unit, op, win)
}

func (tt *TextTrace) Writeback(cycle int64, thread int, dst isa.RegRef, val isa.Value) {
	fmt.Fprintf(tt.w, "[%6d] t%d wb %s = %s\n", cycle, thread, dst, val)
}
