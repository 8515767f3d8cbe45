package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// Figure8Row is one point of the function-unit mix sweep: coupled-mode
// cycle count with a given number of integer and floating-point units
// (four memory units, one branch unit).
type Figure8Row struct {
	Bench  string
	IUs    int
	FPUs   int
	Cycles int64
}

// Figure8 reproduces the number-and-mix-of-function-units experiment:
// all Coupled configurations with 1-4 IUs and 1-4 FPUs, keeping four
// memory units and a single branch unit.
func Figure8() ([]Figure8Row, error) {
	return Figure8Ctx(context.Background())
}

// Figure8Ctx is Figure8 under a cancellation context.
func Figure8Ctx(ctx context.Context) ([]Figure8Row, error) {
	type f8cell struct {
		bench   string
		iu, fpu int
	}
	var cells []f8cell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for iu := 1; iu <= 4; iu++ {
			for fpu := 1; fpu <= 4; fpu++ {
				cells = append(cells, f8cell{b, iu, fpu})
			}
		}
	}
	rows := make([]Figure8Row, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		r, err := ExecuteCtx(ctx, c.bench, COUPLED, machine.Mix(c.iu, c.fpu))
		if err != nil {
			return fmt.Errorf("figure8 %s %diu %dfpu: %w", c.bench, c.iu, c.fpu, err)
		}
		rows[i] = Figure8Row{Bench: c.bench, IUs: c.iu, FPUs: c.fpu, Cycles: r.Cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteFigure8 prints one cycle-count surface per benchmark (the paper
// draws these as 3-D surfaces; here each benchmark is a 4x4 grid with
// FPUs across and IUs down).
func WriteFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintf(w, "Figure 8: coupled cycle counts vs function unit mix (4 MEM units, 1 BR unit)\n")
	byBench := map[string][]Figure8Row{}
	var order []string
	for _, r := range rows {
		if len(byBench[r.Bench]) == 0 {
			order = append(order, r.Bench)
		}
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	for _, b := range order {
		fmt.Fprintf(w, "%s:\n          1 FPU    2 FPU    3 FPU    4 FPU\n", b)
		grid := map[[2]int]int64{}
		for _, r := range byBench[b] {
			grid[[2]int{r.IUs, r.FPUs}] = r.Cycles
		}
		for iu := 1; iu <= 4; iu++ {
			fmt.Fprintf(w, "  %d IU ", iu)
			for fpu := 1; fpu <= 4; fpu++ {
				fmt.Fprintf(w, " %8d", grid[[2]int{iu, fpu}])
			}
			fmt.Fprintln(w)
		}
	}
}
