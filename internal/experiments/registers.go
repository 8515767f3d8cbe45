package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// RegisterRow reports compile-time register usage for one benchmark and
// mode: the paper's compiler "does not perform register allocation,
// assuming that an infinite number of registers are available", and
// Section 3 reports the peak usage that assumption produced (fewer than
// 60 live registers per cluster for realistic configurations, average
// peak 27, and up to 490 for ideal-mode Matrix).
type RegisterRow struct {
	Bench string
	Mode  Mode
	// PeakPerCluster is the largest per-cluster register count over all
	// of the program's thread segments.
	PeakPerCluster int
	// TotalPeak is the largest total (sum over clusters) of any segment.
	TotalPeak int
}

// Registers reports register usage for every benchmark and mode.
func Registers(cfg *machine.Config) ([]RegisterRow, error) {
	return RegistersCtx(context.Background(), cfg)
}

// RegistersCtx is Registers under a cancellation context.
func RegistersCtx(ctx context.Context, cfg *machine.Config) ([]RegisterRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	cells := benchModeCells([]Mode{SEQ, STS, TPE, COUPLED, IDEAL})
	rows := make([]RegisterRow, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		r, err := ExecuteCtx(ctx, cells[i].bench, cells[i].mode, cfg)
		if err != nil {
			return err
		}
		row := RegisterRow{Bench: cells[i].bench, Mode: cells[i].mode}
		for _, d := range r.Diags.Segments {
			total := 0
			for _, n := range d.RegsPerCluster {
				total += n
				if n > row.PeakPerCluster {
					row.PeakPerCluster = n
				}
			}
			if total > row.TotalPeak {
				row.TotalPeak = total
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteRegisters prints the register usage report.
func WriteRegisters(w io.Writer, rows []RegisterRow) {
	fmt.Fprintf(w, "Register usage (compiler assumes unbounded registers and reports the peak)\n")
	fmt.Fprintf(w, "%-10s %-8s %18s %12s\n", "Benchmark", "Mode", "peak per cluster", "total peak")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %18d %12d\n", r.Bench, r.Mode, r.PeakPerCluster, r.TotalPeak)
	}
}
