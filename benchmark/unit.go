package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strings"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/oracle"
	"pcoup/internal/sexpr"
	"pcoup/internal/sim"
)

// unit is one compiled simulation: a program on a machine plus the check
// that its final memory image is right.
type unit struct {
	label     string
	mode      experiments.Mode
	cfg       *machine.Config
	prog      *isa.Program
	maxCycles int64 // 0: run to completion
	// check inspects the finished simulation; checkLayer names the layer
	// it exercises ("bench.verify" or "oracle.run").
	check      func(*sim.Sim) error
	checkLayer string
}

// counts are the exact per-unit model counters pinned by the seed-1
// golden file.
type counts struct {
	Cycles int64 `json:"cycles"`
	Ops    int64 `json:"ops"`
}

// outcome is one simulation with its phase times (ns on the tracer clock).
type outcome struct {
	res                *sim.Result
	skipped            int64
	t0, t1, t2, t3, t4 int64 // new, run, check, release boundaries
}

// simulate runs u once: sim.New → Run → check → Release. A check
// failure is returned as an error after the memory image is released.
func simulate(ctx context.Context, tr *tracer, u *unit, opts ...sim.Option) (outcome, error) {
	var o outcome
	o.t0 = tr.now()
	s, err := sim.New(u.cfg, u.prog, append(opts, sim.WithContext(ctx))...)
	o.t1 = tr.now()
	if err != nil {
		return o, fmt.Errorf("%s: %w", u.label, err)
	}
	o.res, err = s.Run(u.maxCycles)
	o.t2 = tr.now()
	if err != nil {
		return o, fmt.Errorf("%s: %w", u.label, err)
	}
	o.skipped = s.SkippedCycles()
	err = u.check(s)
	o.t3 = tr.now()
	s.Release()
	o.t4 = tr.now()
	if err != nil {
		return o, fmt.Errorf("%s: wrong result: %w", u.label, err)
	}
	return o, nil
}

// record stores the spans of one simulation under parent.
func (o *outcome) record(tr *tracer, parent int64, u *unit) {
	if parent == 0 {
		return
	}
	tr.record(tr.id(), parent, "sim.new", o.t0, o.t1)
	tr.record(tr.id(), parent, "sim.run", o.t1, o.t2)
	tr.record(tr.id(), parent, u.checkLayer, o.t2, o.t3)
}

// unitBuilder compiles benchmark units for one workload's setup. gen
// caches generated sources by variant; compiled caches programs by
// (variant, mode, config without its memory seed), so cells that differ
// only in the seed share one compile.
type unitBuilder struct {
	tr       *tracer
	gen      map[string]*bench.Benchmark
	compiled map[string]*isa.Program
}

func newUnitBuilder(tr *tracer) *unitBuilder {
	return &unitBuilder{tr: tr, gen: map[string]*bench.Benchmark{}, compiled: map[string]*isa.Program{}}
}

// benchUnit builds the paper benchmark's unit for (mode, cfg) through the
// public parse and compile entry points.
func (ub *unitBuilder) benchUnit(label, benchName string, mode experiments.Mode, cfg *machine.Config) (*unit, error) {
	kind := sourceKind(mode)
	gk := benchName + "/" + kind.String()
	b := ub.gen[gk]
	if b == nil {
		var err error
		if b, err = bench.Get(benchName, kind); err != nil {
			return nil, err
		}
		ub.gen[gk] = b
	}
	h, err := cfg.WithSeed(0).Hash()
	if err != nil {
		return nil, err
	}
	ck := gk + "/" + string(mode) + "/" + h
	prog := ub.compiled[ck]
	if prog == nil {
		if prog, err = ub.compile(b.Source, cfg, compiler.Options{Mode: experiments.CompilerMode(mode)}); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		ub.compiled[ck] = prog
	}
	return &unit{
		label: label, mode: mode, cfg: cfg, prog: prog,
		check:      func(s *sim.Sim) error { return b.Verify(peeker(s, prog)) },
		checkLayer: "bench.verify",
	}, nil
}

// compile parses and compiles trusted source, recording both phases.
func (ub *unitBuilder) compile(src string, cfg *machine.Config, opts compiler.Options) (*isa.Program, error) {
	tr := ub.tr
	id, t0 := tr.id(), tr.now()
	forms, err := sexpr.Parse(src)
	t1 := tr.now()
	if err != nil {
		return nil, err
	}
	prog, _, err := compiler.CompileForms(forms, cfg, opts)
	t2 := tr.now()
	tr.record(id, 0, "sexpr.parse", t0, t1)
	tr.record(tr.id(), 0, "compiler.compile", t1, t2)
	return prog, err
}

// sourceKind is the benchmark variant a machine mode runs (the rule of
// the experiment drivers: SEQ/STS run the sequential source, Ideal the
// unrolled one, TPE/Coupled the threaded one).
func sourceKind(m experiments.Mode) bench.SourceKind {
	switch m {
	case experiments.SEQ, experiments.STS:
		return bench.Sequential
	case experiments.IDEAL:
		return bench.Ideal
	}
	return bench.Threaded
}

// peeker reads the finished simulation's memory by global name.
func peeker(s *sim.Sim, prog *isa.Program) bench.Peek {
	addrs := map[string]int64{}
	for _, d := range prog.Data {
		addrs[d.Name] = d.Addr
	}
	return func(global string, off int64) (isa.Value, bool) {
		base, ok := addrs[global]
		if !ok {
			return isa.Value{}, false
		}
		v, _ := s.Memory().Peek(base + off)
		return v, true
	}
}

// oracleCheck compares every global of the finished simulation with the
// reference interpreter's run of the same source.
func oracleCheck(src string, prog *isa.Program) func(*sim.Sim) error {
	return func(s *sim.Sim) error {
		want, err := oracle.Run(src)
		if err != nil {
			return err
		}
		peek := peeker(s, prog)
		for name, vals := range want {
			if strings.HasPrefix(name, "_") {
				continue
			}
			for i, w := range vals {
				got, ok := peek(name, int64(i))
				if !ok || !got.Equal(w) {
					return fmt.Errorf("%s[%d] = %v, interpreter says %v", name, i, got, w)
				}
			}
		}
		return nil
	}
}

// simTiming accumulates the timed simulation layers.
type simTiming struct {
	n                     int
	newNS, runNS, checkNS int64
	cycles, skipped       int64
	runByMode, cycByMode  map[experiments.Mode]int64
	busyRunNS, busyCycles [2]int64 // [in-order, dynamic window]
	checkLayer            string
	allocs                uint64 // heap allocations while the units ran
}

func (st *simTiming) add(u *unit, o *outcome) {
	if st.runByMode == nil {
		st.runByMode, st.cycByMode = map[experiments.Mode]int64{}, map[experiments.Mode]int64{}
	}
	run := o.t2 - o.t1
	st.n++
	st.newNS += o.t1 - o.t0
	st.runNS += run
	st.checkNS += o.t3 - o.t2
	st.cycles += o.res.Cycles
	st.skipped += o.skipped
	st.runByMode[u.mode] += run
	st.cycByMode[u.mode] += o.res.Cycles
	k := 0
	if u.cfg.Dynamic.Enabled() {
		k = 1
	}
	st.busyRunNS[k] += run
	st.busyCycles[k] += o.res.Cycles - o.skipped
	st.checkLayer = u.checkLayer
}

func (st *simTiming) metrics(m map[string]float64) {
	n := float64(st.n)
	m["sim.new_us"] = ratio(float64(st.newNS), n) / 1e3
	m["sim.run_us"] = ratio(float64(st.runNS), n) / 1e3
	m["sim.run_ns_per_cycle"] = ratio(float64(st.runNS), float64(st.cycles))
	for _, mode := range experiments.Modes() {
		m["sim.run_ns_per_cycle."+string(mode)] = ratio(float64(st.runByMode[mode]), float64(st.cycByMode[mode]))
	}
	m["sim.run_ns_per_busy_cycle.inorder"] = ratio(float64(st.busyRunNS[0]), float64(st.busyCycles[0]))
	m["sim.run_ns_per_busy_cycle.dyn"] = ratio(float64(st.busyRunNS[1]), float64(st.busyCycles[1]))
	m["sim.skipped_frac"] = ratio(float64(st.skipped), float64(st.cycles))
	m["sim.allocs_per_cycle"] = ratio(float64(st.allocs), float64(st.cycles))
	if st.checkLayer != "" {
		m[st.checkLayer+"_us"] = ratio(float64(st.checkNS), n) / 1e3
	}
}

// modelPass runs every unit once more, sequentially, with stall
// attribution on, and returns the exact model counters (which a
// speed-only change must leave identical) and the stall fractions. It is
// untimed, so the attribution cost stays out of every timed span.
func modelPass(ctx context.Context, tr *tracer, units []*unit) (map[string]float64, error) {
	var (
		cycles, ops, refs, hits, misses, wb     int64
		branches, mispredicts, demand, prefHits int64
		stalls                                  sim.StallBreakdown
		slots                                   int64
	)
	for _, u := range units {
		o, err := simulate(ctx, tr, u, sim.WithStallAttribution())
		if err != nil {
			return nil, err
		}
		r := o.res
		cycles += r.Cycles
		ops += r.Ops
		refs += r.Mem.Loads + r.Mem.Stores
		hits += r.Mem.Hits
		misses += r.Mem.Misses
		wb += r.WritebackRetries
		if d := r.Dyn; d != nil {
			branches += d.Branches
			mispredicts += d.Mispredicts
			if p := d.Prefetch; p != nil {
				demand += p.Demand
				prefHits += p.Hits
			}
		}
		for c, v := range r.Stalls.Total {
			stalls[c] += v
		}
		slots += r.Stalls.Slots
	}
	m := map[string]float64{
		"sim.cycles":                 float64(cycles),
		"sim.ops":                    float64(ops),
		"memsys.refs":                float64(refs),
		"memsys.miss_frac":           ratio(float64(misses), float64(hits+misses)),
		"interconnect.wb_retries":    float64(wb),
		"dynsched.mispredict_rate":   ratio(float64(mispredicts), float64(branches)),
		"dynsched.prefetch_coverage": ratio(float64(prefHits), float64(demand)),
	}
	for _, c := range sim.StallCauses() {
		m["sim.stall_frac."+c.String()] = ratio(float64(stalls[c]), float64(slots))
	}
	return m, nil
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
