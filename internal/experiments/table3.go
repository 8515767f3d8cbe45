package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/bench"
	"pcoup/internal/machine"
)

// Table3Row is one row of Table 3: for one thread, the compile-time
// schedule length of the inner loop, the average runtime cycles per
// device evaluation, and the number of devices the thread evaluated.
type Table3Row struct {
	Mode            Mode
	Thread          int
	CompileSchedule int
	RuntimeCycles   float64
	Devices         int64
}

// Table3Result is the complete interference experiment.
type Table3Result struct {
	Rows []Table3Row
	// Aggregate running time of each variant.
	STSCycles     int64
	CoupledCycles int64
	// Weighted average cycles per evaluation in Coupled mode.
	CoupledWeighted float64
}

// Table3 reproduces the interference experiment: the ModelQ workload (a
// shared priority queue of 20 identical devices) run once as a single
// statically scheduled thread and once as four coupled threads with
// different priorities. Lower-priority threads dilate relative to their
// compile-time schedule; the aggregate coupled run is still shorter.
func Table3(cfg *machine.Config) (*Table3Result, error) {
	return Table3Ctx(context.Background(), cfg)
}

// Table3Ctx is Table3 under a cancellation context.
func Table3Ctx(ctx context.Context, cfg *machine.Config) (*Table3Result, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	out := &Table3Result{}

	// STS: single thread; the inner loop of main is the whole workload.
	sts, err := runCell(ctx, "modelq", STS, cfg, cellOpts{})
	if err != nil {
		return nil, err
	}
	d, _ := sts.Diags.Diag("main")
	out.STSCycles = sts.Cycles
	out.Rows = append(out.Rows, Table3Row{
		Mode: STS, Thread: 1,
		CompileSchedule: d.LoopWords,
		RuntimeCycles:   float64(sts.Cycles) / 20,
		Devices:         20,
	})

	// Coupled: four worker threads drawing from the shared queue; each
	// worker's device count is read from the final memory image.
	_, err = runCell(ctx, "modelq", COUPLED, cfg, cellOpts{read: func(r *Run, peek bench.Peek) {
		out.CoupledCycles = r.Cycles
		worker := 0
		var totalCycles float64
		var totalDevices int64
		for _, t := range r.Result.Threads {
			if t.Segment == "main" {
				continue
			}
			d, _ := r.Diags.Diag(t.Segment)
			count, _ := peek("counts", int64(worker))
			devices := count.AsInt()
			dur := float64(t.HaltAt - t.SpawnAt)
			per := 0.0
			if devices > 0 {
				per = dur / float64(devices)
			}
			out.Rows = append(out.Rows, Table3Row{
				Mode: COUPLED, Thread: worker + 1,
				CompileSchedule: d.LoopWords,
				RuntimeCycles:   per,
				Devices:         devices,
			})
			totalCycles += dur
			totalDevices += devices
			worker++
		}
		if totalDevices > 0 {
			out.CoupledWeighted = totalCycles / float64(totalDevices)
		}
	}})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteTable3 prints the experiment in the paper's layout.
func WriteTable3(w io.Writer, res *Table3Result) {
	fmt.Fprintf(w, "Table 3: average cycles per inner-loop iteration (Model with shared queue)\n")
	fmt.Fprintf(w, "%-8s %-7s %14s %13s %9s\n", "Mode", "Thread", "CompileSched", "RuntimeCycle", "Devices")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8s %-7d %14d %13.1f %9d\n",
			r.Mode, r.Thread, r.CompileSchedule, r.RuntimeCycles, r.Devices)
	}
	fmt.Fprintf(w, "aggregate: Coupled %d cycles vs STS %d cycles (weighted coupled avg %.1f cycles/eval)\n",
		res.CoupledCycles, res.STSCycles, res.CoupledWeighted)
}
