package sim

import (
	"fmt"
	"io"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// InterleaveRecorder captures the per-cycle mapping of function units to
// threads — the view of the paper's Figures 1 and 2, where several
// threads' statically scheduled instruction streams interleave over the
// shared units at runtime. It is an Observer of issue events: install it
// with WithObserver. Cycles on which nothing issues leave all-idle rows,
// so the event core may jump them without changing the recording.
type InterleaveRecorder struct {
	nopEvents
	cfg      *machine.Config
	maxCycle int64
	stride   int
	// grid holds one row per recorded cycle, flattened: the row for
	// cycle c (cycles are 1-based; step increments before issue) is
	// grid[(c-1)*stride : c*stride], each cell thread id + 1 (0 = idle).
	// A flat slice replaces the old map[int64][]int, which allocated a
	// fresh row per cycle and hashed on every probe.
	grid []int
	// recorded is the highest cycle with a recorded row; the guard in
	// Issue keeps it <= maxCycle when a cap is set.
	recorded int64
}

// NewInterleaveRecorder records the first maxCycle cycles — exactly
// cycles 1..maxCycle, never maxCycle+1 rows (0 = all; be careful with
// long runs).
func NewInterleaveRecorder(cfg *machine.Config, maxCycle int64) *InterleaveRecorder {
	return &InterleaveRecorder{cfg: cfg, maxCycle: maxCycle, stride: cfg.NumUnits()}
}

// RecordedCycles returns how many cycles have recorded rows (trailing
// all-idle cycles issue nothing and are not counted).
func (ir *InterleaveRecorder) RecordedCycles() int64 { return ir.recorded }

// Issue records the unit's thread in the cycle's row.
func (ir *InterleaveRecorder) Issue(cycle int64, unit, thread, _ int, _ *isa.Op) {
	if cycle < 1 || (ir.maxCycle > 0 && cycle > ir.maxCycle) {
		return
	}
	if need := int(cycle) * ir.stride; len(ir.grid) < need {
		ir.grid = append(ir.grid, make([]int, need-len(ir.grid))...)
	}
	ir.recorded = max(ir.recorded, cycle)
	ir.grid[(int(cycle)-1)*ir.stride+unit] = thread + 1
}

// row returns the recorded row for a cycle, or nil.
func (ir *InterleaveRecorder) row(cycle int64) []int {
	if cycle < 1 || cycle > ir.recorded {
		return nil
	}
	return ir.grid[(int(cycle)-1)*ir.stride : int(cycle)*ir.stride]
}

// Write renders the recorded interleaving: one row per cycle, one column
// per function unit, each cell naming the thread granted the unit.
func (ir *InterleaveRecorder) Write(w io.Writer) {
	units := ir.cfg.Units()
	fmt.Fprintf(w, "unit-to-thread interleaving (rows: cycles; columns: units; cells: thread id, . = idle)\n")
	fmt.Fprintf(w, "%7s", "cycle")
	counts := map[machine.UnitKind]int{}
	for _, u := range units {
		fmt.Fprintf(w, " %5s", fmt.Sprintf("%s%d", u.Kind, counts[u.Kind]))
		counts[u.Kind]++
	}
	fmt.Fprintln(w)
	for c := int64(1); c <= ir.recorded; c++ {
		fmt.Fprintf(w, "%7d", c)
		row := ir.row(c)
		for u := range units {
			cell := "."
			if row[u] != 0 {
				cell = fmt.Sprintf("%d", row[u]-1)
			}
			fmt.Fprintf(w, " %5s", cell)
		}
		fmt.Fprintln(w)
	}
}

// Busy returns, for a cycle, how many units issued operations.
func (ir *InterleaveRecorder) Busy(cycle int64) int {
	n := 0
	for _, t := range ir.row(cycle) {
		if t != 0 {
			n++
		}
	}
	return n
}

// ThreadsActive returns the distinct threads that issued in a cycle.
func (ir *InterleaveRecorder) ThreadsActive(cycle int64) []int {
	seen := map[int]bool{}
	var out []int
	for _, t := range ir.row(cycle) {
		if t != 0 && !seen[t-1] {
			seen[t-1] = true
			out = append(out, t-1)
		}
	}
	return out
}
