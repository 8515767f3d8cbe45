package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// DynSchedRow is one cell of the dynamic-scheduling extension: a
// benchmark under one memory model and one dynamic preset, in Coupled
// mode. Cycles are seed-averaged like Figure 7; the predictor and
// prefetcher rates come from the same runs.
type DynSchedRow struct {
	Bench  string
	Preset string
	Memory string
	Cycles int64
	// VsCoupled is cycles relative to plain Coupled on the same
	// benchmark and memory model (< 1 means the preset helped).
	VsCoupled float64
	// MispredictRate is mispredicted branches / resolved branches
	// (0 when the preset has no predictor or nothing branched).
	MispredictRate float64 `json:",omitempty"`
	// PrefetchCoverage is prefetch-buffer hits / demand loads
	// (0 when the preset has no prefetcher).
	PrefetchCoverage float64 `json:",omitempty"`
}

// dynPresets are the dynamic-scheduling machine presets in presentation
// order. The nil model is the plain Coupled baseline the others are
// normalized against.
var dynPresets = []struct {
	Name  string
	Model *machine.DynamicModel
}{
	{"Coupled", nil},
	{"CoupledOoO", &machine.DynOoO},
	{"CoupledTAGE", &machine.DynTAGE},
	{"CoupledPrefetch", &machine.DynPrefetch},
	{"CoupledDyn", &machine.DynAll},
}

// dynSchedMemories are the memory models swept: the deterministic Min
// model isolates the window's reordering benefit, Mem2 is the paper's
// lossiest Figure 7 model, and Slow makes latency tolerance dominate.
func dynSchedMemories() []machine.MemoryModel {
	return []machine.MemoryModel{machine.MemMin, machine.Mem2, machine.MemSlow}
}

// DynSched runs the dynamic-scheduling experiment: every benchmark under
// every memory model and preset, extending Table 2 / Figure 7 with the
// CoupledOoO, CoupledTAGE, CoupledPrefetch, and CoupledDyn columns.
func DynSched(cfg *machine.Config) ([]DynSchedRow, error) {
	return DynSchedCtx(context.Background(), cfg)
}

// DynSchedCtx is DynSched under a cancellation context.
func DynSchedCtx(ctx context.Context, cfg *machine.Config) ([]DynSchedRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	type dsCell struct {
		bench  string
		preset int
		mem    machine.MemoryModel
	}
	var cells []dsCell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for p := range dynPresets {
			for _, mem := range dynSchedMemories() {
				cells = append(cells, dsCell{b, p, mem})
			}
		}
	}
	rows := make([]DynSchedRow, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		p := dynPresets[c.preset]
		cell := cfg.WithMemory(c.mem)
		if p.Model != nil {
			cell = cell.WithDynamic(*p.Model)
		}
		row, err := dynSchedCell(ctx, c.bench, cell)
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", c.bench, p.Name, c.mem.Name, err)
		}
		row.Bench, row.Preset, row.Memory = c.bench, p.Name, c.mem.Name
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := map[string]int64{}
	for _, r := range rows {
		if r.Preset == "Coupled" {
			base[r.Bench+"/"+r.Memory] = r.Cycles
		}
	}
	for i := range rows {
		rows[i].VsCoupled = float64(rows[i].Cycles) / float64(base[rows[i].Bench+"/"+rows[i].Memory])
	}
	return rows, nil
}

// dynSchedCell runs one cell, averaging cycles and dynamic counters over
// the Figure 7 seeds when the memory model is statistical (every run
// still verifies the benchmark's result against the Go reference).
func dynSchedCell(ctx context.Context, b string, cfg *machine.Config) (DynSchedRow, error) {
	seeds := []uint64{cfg.Seed}
	if cfg.Memory.MissRate > 0 {
		seeds = figure7Seeds
	}
	var row DynSchedRow
	var cycles, branches, mispredicts, demand, hits int64
	for _, seed := range seeds {
		r, err := ExecuteCtx(ctx, b, COUPLED, cfg.WithSeed(seed))
		if err != nil {
			return row, err
		}
		cycles += r.Cycles
		if d := r.Result.Dyn; d != nil {
			branches += d.Branches
			mispredicts += d.Mispredicts
			if d.Prefetch != nil {
				demand += d.Prefetch.Demand
				hits += d.Prefetch.Hits
			}
		}
	}
	row.Cycles = cycles / int64(len(seeds))
	if branches > 0 {
		row.MispredictRate = float64(mispredicts) / float64(branches)
	}
	if demand > 0 {
		row.PrefetchCoverage = float64(hits) / float64(demand)
	}
	return row, nil
}

// WriteDynSched prints the Table-2-style grid: one line per benchmark
// and memory model, one cycle column per preset, plus CoupledDyn's
// ratio to plain Coupled and its predictor/prefetcher rates.
func WriteDynSched(w io.Writer, rows []DynSchedRow) {
	fmt.Fprintf(w, "Dynamic scheduling: cycle counts per preset (Coupled mode)\n")
	fmt.Fprintf(w, "%-10s %-6s %9s %9s %9s %9s %9s %7s %6s %6s\n",
		"Benchmark", "Memory", "Coupled", "+OoO", "+TAGE", "+Pref", "+Dyn", "Dyn/Cpl", "mispr", "cover")
	cell := map[string]DynSchedRow{}
	var order []string
	for _, r := range rows {
		key := r.Bench + "/" + r.Memory
		if _, ok := cell[key+"/Coupled"]; !ok && r.Preset == "Coupled" {
			order = append(order, key)
		}
		cell[key+"/"+r.Preset] = r
	}
	for _, key := range order {
		c := cell[key+"/Coupled"]
		dyn := cell[key+"/CoupledDyn"]
		fmt.Fprintf(w, "%-10s %-6s %9d %9d %9d %9d %9d %7.2f %5.1f%% %5.1f%%\n",
			c.Bench, c.Memory, c.Cycles,
			cell[key+"/CoupledOoO"].Cycles,
			cell[key+"/CoupledTAGE"].Cycles,
			cell[key+"/CoupledPrefetch"].Cycles,
			dyn.Cycles, dyn.VsCoupled,
			100*dyn.MispredictRate, 100*dyn.PrefetchCoverage)
	}
}
