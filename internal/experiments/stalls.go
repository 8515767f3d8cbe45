package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// StallRow is one benchmark x mode cell of the stall-attribution report:
// where every active thread-cycle of the run went, by cause.
type StallRow struct {
	Bench  string
	Mode   Mode
	Cycles int64
	// Slots is the number of classified thread-cycles (active threads
	// integrated over the run); Breakdown's causes sum to it.
	Slots     int64
	Breakdown sim.StallBreakdown
	// TopWaitReg is the register with the most presence-wait cycles
	// ("" when nothing waited on a register).
	TopWaitReg       string
	TopWaitRegCycles int64
}

// Stalls runs every benchmark x mode cell on the baseline machine with
// stall attribution enabled. It explains the evaluation's cycle-count
// differences (Table 2) by cause: where SEQ and STS lose their cycles,
// and what the coupled machine's threads hide.
func Stalls(cfg *machine.Config) ([]StallRow, error) {
	return StallsCtx(context.Background(), cfg)
}

// StallsCtx is Stalls under a cancellation context.
func StallsCtx(ctx context.Context, cfg *machine.Config) ([]StallRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	cells := benchModeCells(Modes())
	rows := make([]StallRow, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		r, err := ExecuteCtx(ctx, cells[i].bench, cells[i].mode, cfg, sim.WithStallAttribution())
		if err != nil {
			return err
		}
		st := r.Result.Stalls
		row := StallRow{
			Bench: cells[i].bench, Mode: cells[i].mode,
			Cycles: r.Cycles, Slots: st.Slots, Breakdown: st.Total,
		}
		for reg, n := range st.WaitRegs {
			if n > row.TopWaitRegCycles || (n == row.TopWaitRegCycles && reg < row.TopWaitReg) {
				row.TopWaitReg, row.TopWaitRegCycles = reg, n
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
	return rows, nil
}

// WriteStalls prints the report: one row per cell, one column per cause,
// as percentages of the cell's active thread-cycles.
func WriteStalls(w io.Writer, rows []StallRow) {
	fmt.Fprintf(w, "Stall attribution: %% of active thread-cycles by cause (baseline machine)\n")
	fmt.Fprintf(w, "%-10s %-8s %9s %9s", "Benchmark", "Mode", "#Cycles", "Slots")
	for _, c := range sim.StallCauses() {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintf(w, "  top-wait\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %9d %9d", r.Bench, r.Mode, r.Cycles, r.Slots)
		for _, c := range sim.StallCauses() {
			fmt.Fprintf(w, " %8.1f%%", 100*float64(r.Breakdown[c])/float64(r.Slots))
		}
		if r.TopWaitReg != "" {
			fmt.Fprintf(w, "  %s (%d)", r.TopWaitReg, r.TopWaitRegCycles)
		}
		fmt.Fprintln(w)
	}
}
