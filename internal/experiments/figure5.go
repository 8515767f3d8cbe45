package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// Figure5Row is one bar group of Figure 5: function-unit utilization (in
// average operations per cycle per unit class) for one benchmark and
// mode.
type Figure5Row struct {
	Bench string
	Mode  Mode
	Util  [machine.NumUnitKinds]float64
}

// Figure5 reproduces Figure 5: FPU, IU, MEM, and BR utilization for every
// benchmark and machine mode on the baseline machine.
func Figure5(cfg *machine.Config) ([]Figure5Row, error) {
	return Figure5Ctx(context.Background(), cfg)
}

// Figure5Ctx is Figure5 under a cancellation context.
func Figure5Ctx(ctx context.Context, cfg *machine.Config) ([]Figure5Row, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	cells := benchModeCells([]Mode{SEQ, STS, TPE, COUPLED, IDEAL})
	rows := make([]Figure5Row, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		r, err := ExecuteCtx(ctx, cells[i].bench, cells[i].mode, cfg)
		if err != nil {
			return err
		}
		row := Figure5Row{Bench: cells[i].bench, Mode: cells[i].mode}
		for k := 0; k < machine.NumUnitKinds; k++ {
			row.Util[k] = r.Utilization(machine.UnitKind(k))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteFigure5 prints the utilization chart data.
func WriteFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintf(w, "Figure 5: function unit utilization (average operations per cycle)\n")
	fmt.Fprintf(w, "%-10s %-8s %7s %7s %7s %7s\n", "Benchmark", "Mode", "FPU", "IU", "MEM", "BR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %7.2f %7.2f %7.2f %7.2f\n",
			r.Bench, r.Mode,
			r.Util[machine.FPU], r.Util[machine.IU], r.Util[machine.MEM], r.Util[machine.BR])
	}
}
