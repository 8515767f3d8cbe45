package experiments

import (
	"sync"
	"sync/atomic"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// Compiled-program cache. Sweeps run thousands of cells that differ only
// in simulation parameters (seed, arbitration, fault model, memory
// latency model, thread cap) while compiling the exact same program;
// this cache keys compiles on the benchmark instance plus only the
// configuration inputs the compiler actually reads, so a full sweep
// compiles each program once and all cells share the immutable result.
//
// Sharing is safe because isa.Program (and compiler.Diagnostics) are
// never mutated after compilation: the simulator treats segments,
// instruction words, and data segments as read-only, copying data into
// its own memory image. The golden determinism test runs warm-cache
// cells under -race to enforce this.
//
// Each entry also keeps the generated benchmark (its source and its
// result checker, which only reads the memory image it is handed), so a
// warm cell neither regenerates the source nor recompiles it. One
// RWMutex guards the map: the warm path is a read lock, and the
// generate-and-compile work runs under the entry's sync.Once, never
// under the map lock, so a slow compile does not stall lookups of other
// keys. Lookups/Fills counters expose the traffic for the perf
// experiment.

// progKey identifies one compile: the benchmark source instance and
// every compiler-visible parameter.
type progKey struct {
	bench string
	kind  bench.SourceKind
	size  int // 0 = the benchmark's default size
	opts  compiler.Options
	cfg   string // compileFingerprint of the machine config
}

type progEntry struct {
	once  sync.Once
	bench *bench.Benchmark
	prog  *isa.Program
	diags *compiler.Diagnostics
	err   error
}

// progCacheT is the process-wide compiled-program cache.
type progCacheT struct {
	mu      sync.RWMutex
	m       map[progKey]*progEntry
	lookups atomic.Int64 // total entry() calls
	fills   atomic.Int64 // entries created (write-lock path taken for a new key)
}

var progCache progCacheT

// entry returns the cache entry for key, creating it if absent. The
// common warm path is a single RLock; only the first arrival for a key
// takes the write lock.
func (c *progCacheT) entry(key progKey) *progEntry {
	c.lookups.Add(1)
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[progKey]*progEntry{}
	}
	if e = c.m[key]; e == nil {
		e = &progEntry{}
		c.m[key] = e
		c.fills.Add(1)
	}
	c.mu.Unlock()
	return e
}

// ProgCacheStats reports the compiled-program cache's traffic: total
// lookups and entry fills (distinct compiles). The perf experiment
// records it so BENCH_sim.json trajectories show how much lookup
// traffic the parallel sweep engine puts on the cache.
func ProgCacheStats() (lookups, fills int64) {
	return progCache.lookups.Load(), progCache.fills.Load()
}

// compileFingerprint hashes only the configuration the compiler reads:
// the cluster/unit topology (schedules, latencies, slot assignment),
// MaxDests, and the memory hit latency (load scheduling distance).
// Runtime-only knobs — seed, interconnect, arbitration, issue policy,
// op caches, thread cap, fault injection, miss-rate modeling — are
// zeroed so cells differing only in them share one compile.
func compileFingerprint(cfg *machine.Config) (string, error) {
	c := cfg.Canonical()
	c.Seed = 0
	c.Interconnect = 0
	c.Arbitration = 0
	c.LockStepIssue = false
	c.OpCache = machine.OpCacheModel{}
	c.MaxThreads = 0
	c.Faults = faults.Model{}
	c.Memory = machine.MemoryModel{HitLatency: cfg.Memory.HitLatency}
	return c.Hash()
}

// compileCached generates and compiles (bench instance, options,
// machine) once and returns the shared benchmark and immutable program.
// size 0 selects the benchmark's default problem size (bench.Get); other
// sizes go through bench.GetN. An unknown benchmark name is rejected
// before any cache entry is created.
func compileCached(benchName string, kind bench.SourceKind, size int, cfg *machine.Config, opts compiler.Options) (*bench.Benchmark, *isa.Program, *compiler.Diagnostics, error) {
	if err := bench.CheckName(benchName); err != nil {
		return nil, nil, nil, err
	}
	fp, err := compileFingerprint(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	key := progKey{bench: benchName, kind: kind, size: size, opts: opts, cfg: fp}
	e := progCache.entry(key)
	e.once.Do(func() {
		if size == 0 {
			e.bench, e.err = bench.Get(benchName, kind)
		} else {
			e.bench, e.err = bench.GetN(benchName, kind, size)
		}
		if e.err == nil {
			e.prog, e.diags, e.err = compiler.Compile(e.bench.Source, cfg, opts)
		}
	})
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	return e.bench, e.prog, e.diags, nil
}
