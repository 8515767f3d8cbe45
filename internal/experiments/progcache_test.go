package experiments

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/faults"
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

// hashedFingerprint is the compile fingerprint as it was first defined:
// the hash of the canonical config with every runtime-only knob cleared.
func hashedFingerprint(t *testing.T, cfg *machine.Config) string {
	t.Helper()
	c := cfg.Canonical()
	c.Seed = 0
	c.Interconnect = 0
	c.Arbitration = 0
	c.LockStepIssue = false
	c.OpCache = machine.OpCacheModel{}
	c.MaxThreads = 0
	c.Faults = faults.Model{}
	c.Memory = machine.MemoryModel{HitLatency: cfg.Memory.HitLatency}
	h, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCompileKeyPartition: two configs share a compile key exactly when
// their hashed canonical fingerprints are equal, over variants of every
// runtime-only knob (which must share) and every compiler-visible one
// (which must not).
func TestCompileKeyPartition(t *testing.T) {
	edit := func(f func(c *machine.Config)) *machine.Config {
		c := machine.Baseline()
		f(c)
		return c
	}
	cfgs := []*machine.Config{
		machine.Baseline(),
		edit(func(c *machine.Config) { c.Name = "renamed" }),
		edit(func(c *machine.Config) { c.Seed = 9 }),
		machine.Baseline().WithInterconnect(machine.InterconnectKind(2)),
		edit(func(c *machine.Config) { c.Arbitration = machine.RoundRobinArbitration }),
		edit(func(c *machine.Config) { c.LockStepIssue = true }),
		edit(func(c *machine.Config) { c.OpCache = machine.OpCacheModel{Entries: 8, MissPenalty: 2} }),
		edit(func(c *machine.Config) { c.MaxThreads = 3 }),
		machine.Baseline().WithFaults(faults.Model{Seed: 3, MemDropRate: 0.1}),
		machine.Baseline().WithMemory(machine.Mem1),
		machine.Baseline().WithMemory(machine.Mem2),
		edit(func(c *machine.Config) { c.Memory.HitLatency = 3 }),
		edit(func(c *machine.Config) { c.Clusters[0].Units[0].Latency = 2 }),
		edit(func(c *machine.Config) { c.Clusters[1].Registers = 16 }),
		edit(func(c *machine.Config) { c.MaxDests = 1 }),
		edit(func(c *machine.Config) { c.Clusters = c.Clusters[1:] }),
		machine.Mix(2, 1),
		machine.Mix(1, 2),
		machine.Baseline().WithDynamic(machine.DynOoO),
		machine.Baseline().WithDynamic(machine.DynamicModel{Window: 4, SquashPenalty: 3}),
		machine.Baseline().WithDynamic(machine.DynAll),
	}
	for i, a := range cfgs {
		for j, b := range cfgs {
			sameKey := compileFingerprint(a) == compileFingerprint(b)
			sameHash := hashedFingerprint(t, a) == hashedFingerprint(t, b)
			if sameKey != sameHash {
				t.Errorf("configs %d and %d: equal keys %t, equal hashed fingerprints %t", i, j, sameKey, sameHash)
			}
		}
	}
}
