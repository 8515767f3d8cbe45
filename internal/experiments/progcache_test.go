package experiments

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/machine"
)

// TestProgCacheWarmPath: a warm lookup returns the benchmark its entry
// generated (no regeneration per cell), and an unknown benchmark name
// is rejected before it allocates an entry.
func TestProgCacheWarmPath(t *testing.T) {
	cfg := machine.Baseline()
	opts := compiler.Options{Mode: compilerMode(COUPLED)}
	b1, p1, _, err := compileCached("lud", bench.Threaded, 0, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, p2, _, err := compileCached("lud", bench.Threaded, 0, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("warm lookup regenerated the benchmark")
	}
	if p1 != p2 {
		t.Error("warm lookup recompiled the program")
	}

	_, fills := ProgCacheStats()
	if _, _, _, err := compileCached("no-such-bench", bench.Threaded, 0, cfg, opts); err == nil {
		t.Fatal("unknown benchmark compiled")
	}
	if _, after := ProgCacheStats(); after != fills {
		t.Errorf("unknown benchmark created %d cache entries", after-fills)
	}
}
