//go:build !race

package sim_test

// The allocation budget for the steady-state cycle kernel: amortized
// heap allocations per simulated cycle, measured over a complete run
// including Sim construction (with a warm memory-image pool, as in a
// sweep). Three inputs: matrix/Coupled on the in-order machine, the
// same program under the DynOoO four-word issue window at Min memory,
// so the deeper window path is held to the same budget, and lud/Coupled,
// whose hundreds of forked threads are held to a budget per spawned
// thread (see allocBudgetPerThread). CI fails if an
// optimization regresses past it. Excluded under -race because race
// instrumentation changes allocation counts.

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/machine"
)

// allocBudgetPerCycle is the checked-in regression budget. The kernel
// measures 0.267 allocs/cycle in order and 0.346 under the window (the
// residual is per-run Sim and thread construction amortized over the
// run, not per-cycle work); the budget allows about 20% more. The
// pre-optimization kernel measured ~20 in order, the window path ~6
// before it recycled its entries, and both ~0.7-0.9 before register
// files were sized per segment.
const allocBudgetPerCycle = 0.42

// allocBudgetPerThread is the budget of the thread-churn input,
// lud/Coupled at Min memory: 477 forked threads over 9,715 cycles. Each
// spawn pays a fixed setup (thread record, register files, issue
// window) that a per-cycle budget would charge to the kernel, so this
// input is held to allocations per spawned thread. The kernel measures
// 6.09 per thread (2,904 allocations per run; 22.85 while register
// files grew one write at a time); the budget allows about 20% more.
const allocBudgetPerThread = 7.3

func TestAllocBudget(t *testing.T) {
	for _, in := range []struct {
		name      string
		bench     string
		cfg       *machine.Config
		perThread bool // budget per spawned thread, not per cycle
	}{
		{"matrix/Coupled", "matrix", machine.Baseline(), false},
		{"matrix/Coupled+DynOoO", "matrix", machine.Baseline().WithDynamic(machine.DynOoO), false},
		{"lud/Coupled", "lud", machine.Baseline(), true},
	} {
		t.Run(in.name, func(t *testing.T) {
			cfg, prog := compileOn(t, in.cfg, in.bench, bench.Threaded, compiler.Unrestricted)
			res := runResult(t, cfg, prog) // warm the memory-image pool
			avg := testing.AllocsPerRun(5, func() {
				runOnce(t, cfg, prog)
			})
			perCycle := avg / float64(res.Cycles)
			if !in.perThread {
				t.Logf("allocs/run = %.1f over %d cycles = %.3f allocs/cycle (budget %.2f)",
					avg, res.Cycles, perCycle, allocBudgetPerCycle)
				if perCycle > allocBudgetPerCycle {
					t.Errorf("steady-state kernel allocates %.3f/cycle, budget is %.2f", perCycle, allocBudgetPerCycle)
				}
				return
			}
			perThread := avg / float64(len(res.Threads))
			t.Logf("allocs/run = %.1f over %d threads, %d cycles = %.2f allocs/thread, %.3f allocs/cycle (budget %.1f/thread)",
				avg, len(res.Threads), res.Cycles, perThread, perCycle, allocBudgetPerThread)
			if perThread > allocBudgetPerThread {
				t.Errorf("kernel allocates %.2f per spawned thread, budget is %.1f", perThread, allocBudgetPerThread)
			}
		})
	}
}
