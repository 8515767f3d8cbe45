//go:build !race

package sim_test

// The allocation budget for the steady-state cycle kernel: amortized
// heap allocations per simulated cycle, measured over a complete run
// including Sim construction (with a warm memory-image pool, as in a
// sweep). Two inputs: matrix/Coupled on the in-order machine, and the
// same program under the DynOoO four-word issue window at Min memory,
// so the deeper window path is held to the same budget. CI fails if an
// optimization regresses past it. Excluded under -race because race
// instrumentation changes allocation counts.

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/machine"
)

// allocBudgetPerCycle is the checked-in regression budget. The optimized
// kernel measures ~0.7 allocs/cycle on both inputs (the residual is
// per-run Sim and thread construction amortized over the run, not
// per-cycle work); the pre-optimization kernel measured ~20 in order,
// and the window path measured ~6 before it recycled its entries.
const allocBudgetPerCycle = 1.0

func TestAllocBudget(t *testing.T) {
	for _, in := range []struct {
		name string
		cfg  *machine.Config
	}{
		{"matrix/Coupled", machine.Baseline()},
		{"matrix/Coupled+DynOoO", machine.Baseline().WithDynamic(machine.DynOoO)},
	} {
		t.Run(in.name, func(t *testing.T) {
			cfg, prog := compileOn(t, in.cfg, "matrix", bench.Threaded, compiler.Unrestricted)
			cycles := runOnce(t, cfg, prog) // warm the memory-image pool
			avg := testing.AllocsPerRun(5, func() {
				runOnce(t, cfg, prog)
			})
			perCycle := avg / float64(cycles)
			t.Logf("allocs/run = %.1f over %d cycles = %.3f allocs/cycle (budget %.2f)",
				avg, cycles, perCycle, allocBudgetPerCycle)
			if perCycle > allocBudgetPerCycle {
				t.Errorf("steady-state kernel allocates %.3f/cycle, budget is %.2f", perCycle, allocBudgetPerCycle)
			}
		})
	}
}
