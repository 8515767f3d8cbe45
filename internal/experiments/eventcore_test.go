package experiments

// Event-core differential suite: every Table 2 cell (benchmark x mode on
// the baseline machine) plus long-latency, dynamic-scheduling, and
// fault-injection cells is run under the event core and under the
// ticking kernel (sim.WithCycleSkipping(false)) with every trace
// consumer installed at once. The goldenRun digest (Result JSON plus
// first and last checkpoint bytes) extended with each consumer's output
// bytes must be identical across kernels, tracing must not change the
// untraced digest, and tracing must not cost the event core a single
// skipped cycle.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pcoup/internal/faults"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

// tracedRun is goldenRun with the text trace, JSON tracer, Timeline, and
// InterleaveRecorder installed. It returns the golden digest, a digest
// of every consumer's output plus the stall report, and the cycles the
// event core skipped.
func tracedRun(t *testing.T, benchName string, mode Mode, cfg *machine.Config, every int64, extra ...sim.Option) (string, string, int64) {
	t.Helper()
	text := sha256.New()
	tracer := sim.NewJSONTracer(cfg)
	tl := sim.NewTimeline(cfg, 64)
	rec := sim.NewInterleaveRecorder(cfg, 0)
	opts := append([]sim.Option{
		sim.WithObserver(sim.NewTextTrace(text)), sim.WithObserver(tracer),
		sim.WithObserver(tl), sim.WithObserver(rec),
	}, extra...)
	digest, res, s := goldenRun(t, benchName, mode, cfg, every, opts...)
	out := sha256.New()
	out.Write(text.Sum(nil))
	if err := tracer.Write(out); err != nil {
		t.Fatal(err)
	}
	tl.Write(out, res.Cycles)
	rec.Write(out)
	sim.WriteStallReport(out, cfg, res)
	return digest, hex.EncodeToString(out.Sum(nil)), s.SkippedCycles()
}

func TestEventCoreDifferential(t *testing.T) {
	type cell struct {
		name  string
		bench string
		mode  Mode
		cfg   *machine.Config
		every int64 // checkpoint interval; 0 means goldenCheckpointEvery
	}
	var cells []cell
	for _, c := range benchModeCells(Modes()) {
		cells = append(cells, cell{
			name:  fmt.Sprintf("%s/%s", c.bench, c.mode),
			bench: c.bench,
			mode:  c.mode,
			cfg:   machine.Baseline(),
		})
	}
	// Long-latency memory: the event core's common case. On Slow memory
	// lud skips most of its cycles.
	for _, b := range []string{"lud", "matrix"} {
		cells = append(cells, cell{
			name:  b + "/Coupled@Mem2",
			bench: b,
			mode:  COUPLED,
			cfg:   machine.Baseline().WithMemory(machine.Mem2),
		})
	}
	// Its 217k cycles would take 3,400 golden-interval checkpoints, which
	// would dominate the suite's time, so it checkpoints less often.
	cells = append(cells, cell{
		name:  "lud/Coupled@MemSlow",
		bench: "lud",
		mode:  COUPLED,
		cfg:   machine.Baseline().WithMemory(machine.MemSlow),
		every: 4096,
	})
	// Dynamic scheduling: four-word window issue with prediction and
	// prefetching.
	cells = append(cells, cell{
		name:  "lud/CoupledDyn@Mem2",
		bench: "lud",
		mode:  COUPLED,
		cfg:   machine.Baseline().WithMemory(machine.Mem2).WithDynamic(machine.DynAll),
	})
	// Fault injection: delayed/dropped wakeups and port outages must
	// reproduce bit-for-bit across skips. Unit outages are deliberately
	// absent — they force per-cycle mode (see sim.skipAllowed).
	cells = append(cells, cell{
		name:  "model/Coupled@memfaults",
		bench: "model",
		mode:  COUPLED,
		cfg: machine.Baseline().WithFaults(faults.Model{
			Seed:        11,
			MemDropRate: 0.05, MemDelayRate: 0.05, MemDelayMax: 8,
			PortOutageRate: 0.02, PortOutageCycles: 2,
		}),
	})
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			every := c.every
			if every == 0 {
				every = goldenCheckpointEvery
			}
			plain, _, plainSim := goldenRun(t, c.bench, c.mode, c.cfg, every)
			event, eventOut, skipped := tracedRun(t, c.bench, c.mode, c.cfg, every)
			ticking, tickingOut, _ := tracedRun(t, c.bench, c.mode, c.cfg, every, sim.WithCycleSkipping(false))
			if event != ticking {
				t.Errorf("event core diverged from ticking kernel:\n  event   %s\n  ticking %s", event, ticking)
			}
			if eventOut != tickingOut {
				t.Errorf("trace consumers' output diverged between kernels:\n  event   %s\n  ticking %s", eventOut, tickingOut)
			}
			if event != plain {
				t.Errorf("tracing changed the run:\n  traced   %s\n  untraced %s", event, plain)
			}
			if skipped != plainSim.SkippedCycles() {
				t.Errorf("traced event run skipped %d cycles, untraced %d", skipped, plainSim.SkippedCycles())
			}
		})
	}
}
