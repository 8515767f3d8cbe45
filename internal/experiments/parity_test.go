package experiments

// Issue-path parity guard: the 18 Table 2 cells under every issue
// configuration the baseline golden file does not cover — lock-step
// issue, operation caches, memory faults on long-latency memory, the
// prefetcher without a window, and the out-of-order window with and
// without prediction and prefetching — each folded into a goldenRun
// digest and compared against testdata/issue_parity.json. Together with
// TestGoldenDeterminism it pins every observable of every issue mode, so
// a kernel refactor of the issue path must reproduce them bit for bit.
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/experiments/ -run TestIssueParity -update-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"pcoup/internal/compiler"
	"pcoup/internal/faults"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

const parityPath = "testdata/issue_parity.json"

// parityConfigs names each issue configuration.
func parityConfigs() []struct {
	name string
	cfg  *machine.Config
} {
	lockStep := machine.Baseline()
	lockStep.LockStepIssue = true
	opCache := func(entries int) *machine.Config {
		c := machine.Baseline()
		c.OpCache = machine.OpCacheModel{Entries: entries, MissPenalty: 4}
		return c
	}
	mem2 := machine.Baseline().WithMemory(machine.Mem2)
	roundRobin := machine.Baseline()
	roundRobin.Arbitration = machine.RoundRobinArbitration
	return []struct {
		name string
		cfg  *machine.Config
	}{
		{"LockStep", lockStep},
		{"OpCache64", opCache(64)},
		{"OpCache1", opCache(1)},
		{"Mem2+memfaults", mem2.WithFaults(faults.Model{
			Seed:        11,
			MemDropRate: 0.05, MemDelayRate: 0.05, MemDelayMax: 8,
			PortOutageRate: 0.02, PortOutageCycles: 2,
		})},
		{"UnitOutages", machine.Baseline().WithFaults(faults.Model{
			Seed: 13, UnitOutageRate: 0.02, UnitOutageCycles: 3,
		})},
		{"RoundRobin", roundRobin},
		{"DynPrefetch", machine.Baseline().WithDynamic(machine.DynPrefetch)},
		{"DynOoO@Mem2", mem2.WithDynamic(machine.DynOoO)},
		{"DynAll@Mem2", mem2.WithDynamic(machine.DynAll)},
	}
}

func TestIssueParity(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		data, err := os.ReadFile(parityPath)
		if err != nil {
			t.Fatalf("reading parity file (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parsing %s: %v", parityPath, err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("cells", func(t *testing.T) {
		for _, pc := range parityConfigs() {
			for _, c := range benchModeCells(Modes()) {
				pc, c := pc, c
				key := fmt.Sprintf("%s/%s/%s", pc.name, c.bench, c.mode)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					h, _, _ := goldenRun(t, c.bench, c.mode, pc.cfg, goldenCheckpointEvery)
					mu.Lock()
					got[key] = h
					mu.Unlock()
					if *updateGolden {
						return
					}
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no parity hash recorded (run -update-golden)", key)
					} else if h != w {
						t.Errorf("%s: issue behavior diverged:\n  got  %s\n  want %s", key, h, w)
					}
				})
			}
		}
	})
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d parity hashes to %s", len(got), parityPath)
	}
}

// windowOfOneCheckpointEvery spaces TestWindowOfOneIsInOrder's
// checkpoints: Mem2 cells run tens of thousands of cycles, and encoding
// a checkpoint every goldenCheckpointEvery cycles would dominate the
// suite's time under -race.
const windowOfOneCheckpointEvery = 256

// TestWindowOfOneIsInOrder: an explicit one-word issue window with no
// predictor is the paper's in-order machine. Every Table 2 cell, at Min
// and Mem2 memory, produces the same result, stall attribution, and
// mid-run checkpoints, apart from the machine hash and the dynamic
// counters that only the explicit window reports.
func TestWindowOfOneIsInOrder(t *testing.T) {
	for _, mem := range []machine.MemoryModel{machine.MemMin, machine.Mem2} {
		inOrder := machine.Baseline().WithMemory(mem)
		one := inOrder.WithDynamic(machine.DynamicModel{Window: 1})
		for _, c := range benchModeCells(Modes()) {
			c := c
			t.Run(fmt.Sprintf("%s/%s@%s", c.bench, c.mode, mem.Name), func(t *testing.T) {
				t.Parallel()
				_, prog, _, err := compileCached(c.bench, sourceKind(c.mode), 0, inOrder, compiler.Options{Mode: compilerMode(c.mode)})
				if err != nil {
					t.Fatal(err)
				}
				run := func(cfg *machine.Config) string {
					h := sha256.New()
					enc := json.NewEncoder(h)
					s, err := sim.New(cfg, prog, sim.WithStallAttribution(),
						sim.WithCheckpointEvery(windowOfOneCheckpointEvery, func(ck *sim.Checkpoint) error {
							ck.Machine, ck.Dyn = "", nil
							return enc.Encode(ck)
						}))
					if err != nil {
						t.Fatal(err)
					}
					r, err := s.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					r.Dyn = nil
					if err := enc.Encode(r); err != nil {
						t.Fatal(err)
					}
					return hex.EncodeToString(h.Sum(nil))
				}
				if a, b := run(inOrder), run(one); a != b {
					t.Errorf("one-word window diverged from in-order issue:\n  in-order %s\n  window   %s", a, b)
				}
			})
		}
	}
}
