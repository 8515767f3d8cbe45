package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// ScalingRow is one point of the problem-size scaling study (an extension
// beyond the paper): cycle counts of STS and Coupled at one benchmark
// size, and the resulting coupling speedup.
type ScalingRow struct {
	Bench   string
	Size    int
	STS     int64
	Coupled int64
	Speedup float64
}

// scalingSizes lists the sweep per benchmark (the middle entry is the
// paper's size).
var scalingSizes = map[string][]int{
	"matrix": {5, 9, 14},
	"fft":    {16, 32, 64},
	"lud":    {4, 8, 10},
	"model":  {10, 20, 40},
}

// Scaling sweeps benchmark problem sizes and compares statically
// scheduled (STS) against coupled execution. The coupling advantage
// persists across sizes: it comes from interleaving threads over shared
// units, not from a particular problem dimension.
func Scaling(cfg *machine.Config) ([]ScalingRow, error) {
	return ScalingCtx(context.Background(), cfg)
}

// ScalingCtx is Scaling under a cancellation context.
func ScalingCtx(ctx context.Context, cfg *machine.Config) ([]ScalingRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	type scell struct {
		bench string
		size  int
		mode  Mode
	}
	var cells []scell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, size := range scalingSizes[b] {
			cells = append(cells, scell{b, size, STS}, scell{b, size, COUPLED})
		}
	}
	cycles := make([]int64, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		r, err := runCell(ctx, c.bench, c.mode, cfg, cellOpts{size: c.size})
		if err != nil {
			return fmt.Errorf("scaling size %d: %w", c.size, err)
		}
		cycles[i] = r.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for i := 0; i < len(cells); i += 2 {
		sts, coupled := cycles[i], cycles[i+1]
		rows = append(rows, ScalingRow{
			Bench: cells[i].bench, Size: cells[i].size,
			STS: sts, Coupled: coupled,
			Speedup: float64(sts) / float64(coupled),
		})
	}
	return rows, nil
}

// WriteScaling prints the scaling study.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintf(w, "Scaling study (extension): STS vs Coupled across problem sizes\n")
	fmt.Fprintf(w, "%-10s %6s %10s %10s %9s\n", "Benchmark", "Size", "STS", "Coupled", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %10d %10d %9.2f\n", r.Bench, r.Size, r.STS, r.Coupled, r.Speedup)
	}
}
