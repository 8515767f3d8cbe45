package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// Figure7Row is one point of Figure 7: cycle count of a benchmark in one
// machine mode under one memory latency model.
type Figure7Row struct {
	Bench  string
	Mode   Mode
	Memory string
	Cycles int64
	VsMin  float64 // cycles relative to the Min model for the same mode
}

// figure7Seeds are the statistical-memory seeds averaged per cell (the
// miss pattern is random; a few seeds stabilize the estimate while
// remaining exactly reproducible).
var figure7Seeds = []uint64{11, 23, 47}

// Figure7 reproduces the variable-memory-latency experiment: STS, Ideal,
// TPE, and Coupled modes under the Min, Mem1 (5% miss, 20-100 cycle
// penalty), and Mem2 (10% miss) memory models. Multithreaded modes hide
// the long latencies; statically scheduled modes stall.
func Figure7(cfg *machine.Config) ([]Figure7Row, error) {
	return Figure7Ctx(context.Background(), cfg)
}

// Figure7Ctx is Figure7 under a cancellation context.
func Figure7Ctx(ctx context.Context, cfg *machine.Config) ([]Figure7Row, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	type f7cell struct {
		bench string
		mode  Mode
		mem   machine.MemoryModel
	}
	var cells []f7cell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, m := range []Mode{STS, IDEAL, TPE, COUPLED} {
			if !ModeSupported(b, m) {
				continue
			}
			for _, mem := range machine.MemoryModels() {
				cells = append(cells, f7cell{b, m, mem})
			}
		}
	}
	rows := make([]Figure7Row, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		cycles, err := averageCycles(ctx, c.bench, c.mode, cfg.WithMemory(c.mem))
		if err != nil {
			return err
		}
		rows[i] = Figure7Row{Bench: c.bench, Mode: c.mode, Memory: c.mem.Name, Cycles: cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	min := map[string]int64{}
	for _, r := range rows {
		if r.Memory == "Min" {
			min[r.Bench+string(r.Mode)] = r.Cycles
		}
	}
	for i := range rows {
		rows[i].VsMin = float64(rows[i].Cycles) / float64(min[rows[i].Bench+string(rows[i].Mode)])
	}
	return rows, nil
}

// averageCycles runs one cell under each seed and averages the cycle
// counts (results are verified on every run).
func averageCycles(ctx context.Context, b string, m Mode, cfg *machine.Config) (int64, error) {
	if cfg.Memory.MissRate == 0 {
		r, err := ExecuteCtx(ctx, b, m, cfg)
		if err != nil {
			return 0, err
		}
		return r.Cycles, nil
	}
	var sum int64
	for _, seed := range figure7Seeds {
		r, err := ExecuteCtx(ctx, b, m, cfg.WithSeed(seed))
		if err != nil {
			return 0, err
		}
		sum += r.Cycles
	}
	return sum / int64(len(figure7Seeds)), nil
}

// WriteFigure7 prints the memory-latency chart data.
func WriteFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintf(w, "Figure 7: cycle counts under variable memory latency\n")
	fmt.Fprintf(w, "%-10s %-8s %-6s %9s %7s\n", "Benchmark", "Mode", "Memory", "#Cycles", "vs Min")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %-6s %9d %7.2f\n", r.Bench, r.Mode, r.Memory, r.Cycles, r.VsMin)
	}
}
