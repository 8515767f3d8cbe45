package experiments

// Golden determinism guard for the simulator kernel: every benchmark x
// mode cell is run on the baseline machine with stall attribution and
// periodic full-state checkpoints, and a SHA-256 over (Result JSON,
// first checkpoint bytes, last checkpoint bytes) is compared against
// hashes recorded from the pre-optimization kernel. Any optimization
// that changes cycle counts, stall attribution, statistics, or the
// checkpoint encoding — even by reordering a queue — fails this test.
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/experiments/ -run TestGoldenDeterminism -update-golden
//
// Each cell is executed twice (the second run hits the compiled-program
// cache), in parallel across cells, so `go test -race` also exercises
// concurrent sweeps sharing cached programs.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pcoup/internal/compiler"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_determinism.json from this kernel's behavior")

const goldenPath = "testdata/golden_determinism.json"

// goldenCheckpointEvery is chosen so even the shortest cell (model
// Coupled, under 100 cycles) produces at least one mid-run checkpoint
// with in-flight machine state.
const goldenCheckpointEvery = 64

// goldenHash runs one cell and folds its observable behavior into a hash.
func goldenHash(t *testing.T, benchName string, mode Mode) string {
	t.Helper()
	h, _, _ := goldenRun(t, benchName, mode, machine.Baseline(), goldenCheckpointEvery)
	return h
}

// goldenRun runs one cell on an arbitrary machine, checkpointing every
// `every` cycles, with extra sim options (the event-core differential
// suite runs cells on both kernels and with every trace consumer
// installed). It verifies the cell's result and returns the golden
// digest with the result and the Sim for kernel counters.
func goldenRun(t *testing.T, benchName string, mode Mode, cfg *machine.Config, every int64, extra ...sim.Option) (string, *sim.Result, *sim.Sim) {
	t.Helper()
	b, prog, _, err := compileCached(benchName, sourceKind(mode), 0, cfg, compiler.Options{Mode: compilerMode(mode)})
	if err != nil {
		t.Fatalf("%s/%s: %v", benchName, mode, err)
	}
	var first, last *sim.Checkpoint
	opts := []sim.Option{
		sim.WithStallAttribution(),
		sim.WithCheckpointEvery(every, func(ck *sim.Checkpoint) error {
			if first == nil {
				first = ck
			}
			last = ck
			return nil
		}),
	}
	s, err := sim.New(cfg, prog, append(opts, extra...)...)
	if err != nil {
		t.Fatalf("%s/%s: %v", benchName, mode, err)
	}
	r, err := s.Run(0)
	if err != nil {
		t.Fatalf("%s/%s: %v", benchName, mode, err)
	}
	if err := b.Verify(peeker(s, prog)); err != nil {
		t.Fatalf("%s/%s: wrong result: %v", benchName, mode, err)
	}
	resJSON, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s/%s: marshal result: %v", benchName, mode, err)
	}
	if first == nil || last == nil {
		t.Fatalf("%s/%s: no checkpoint was taken (run too short for interval %d?)", benchName, mode, every)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("%s/%s: marshal first checkpoint: %v", benchName, mode, err)
	}
	lastJSON, err := json.Marshal(last)
	if err != nil {
		t.Fatalf("%s/%s: marshal last checkpoint: %v", benchName, mode, err)
	}
	h := sha256.New()
	h.Write(resJSON)
	h.Write([]byte{'|'})
	h.Write(firstJSON)
	h.Write([]byte{'|'})
	h.Write(lastJSON)
	return hex.EncodeToString(h.Sum(nil)), r, s
}

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return m
}

func TestGoldenDeterminism(t *testing.T) {
	cells := benchModeCells(Modes())
	var want map[string]string
	if !*updateGolden {
		want = loadGolden(t)
	}
	var mu sync.Mutex
	got := make(map[string]string, len(cells))
	// The inner group returns only after every parallel subtest finished,
	// so the update path below sees the complete map.
	t.Run("cells", func(t *testing.T) {
		for _, c := range cells {
			c := c
			key := fmt.Sprintf("%s/%s", c.bench, c.mode)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				h1 := goldenHash(t, c.bench, c.mode)
				// Second run shares the cached compiled program; it must
				// reproduce the first run exactly.
				h2 := goldenHash(t, c.bench, c.mode)
				if h1 != h2 {
					t.Fatalf("%s: warm-cache rerun hash %s != first run %s", key, h2, h1)
				}
				mu.Lock()
				got[key] = h1
				mu.Unlock()
				if !*updateGolden {
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no golden hash recorded (run -update-golden)", key)
					} else if h1 != w {
						t.Errorf("%s: behavior diverged from golden kernel:\n  got  %s\n  want %s", key, h1, w)
					}
				}
			})
		}
	})
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
	}
}
