package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// Figure6Row is one point of Figure 6: cycle count of a benchmark in
// Coupled mode under one inter-cluster communication scheme.
type Figure6Row struct {
	Bench        string
	Interconnect machine.InterconnectKind
	Cycles       int64
	VsFull       float64
	// WritebackRetries counts register writes delayed by port/bus
	// arbitration (a direct measure of communication contention).
	WritebackRetries int64
}

// Figure6 reproduces the restricted-communication experiment: each
// benchmark runs in Coupled mode under the Full, Tri-Port, Dual-Port,
// Single-Port, and Shared-Bus interconnection schemes.
func Figure6(cfg *machine.Config) ([]Figure6Row, error) {
	return Figure6Ctx(context.Background(), cfg)
}

// Figure6Ctx is Figure6 under a cancellation context.
func Figure6Ctx(ctx context.Context, cfg *machine.Config) ([]Figure6Row, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	type f6cell struct {
		bench string
		ic    machine.InterconnectKind
	}
	var cells []f6cell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, ic := range machine.Interconnects() {
			cells = append(cells, f6cell{b, ic})
		}
	}
	rows := make([]Figure6Row, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		r, err := ExecuteCtx(ctx, c.bench, COUPLED, cfg.WithInterconnect(c.ic))
		if err != nil {
			return err
		}
		rows[i] = Figure6Row{
			Bench: c.bench, Interconnect: c.ic, Cycles: r.Cycles,
			WritebackRetries: r.Result.WritebackRetries,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	full := map[string]int64{}
	for _, r := range rows {
		if r.Interconnect == machine.Full {
			full[r.Bench] = r.Cycles
		}
	}
	for i := range rows {
		rows[i].VsFull = float64(rows[i].Cycles) / float64(full[rows[i].Bench])
	}
	return rows, nil
}

// WriteFigure6 prints the restricted-communication chart data.
func WriteFigure6(w io.Writer, rows []Figure6Row) {
	fmt.Fprintf(w, "Figure 6: coupled-mode cycle counts under restricted communication\n")
	fmt.Fprintf(w, "%-10s %-12s %9s %8s %10s\n", "Benchmark", "Scheme", "#Cycles", "vs Full", "WBRetries")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12s %9d %8.3f %10d\n",
			r.Bench, r.Interconnect, r.Cycles, r.VsFull, r.WritebackRetries)
	}
}
