package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// cellSpec names one sweep cell before compilation.
type cellSpec struct {
	label string
	bench string
	mode  experiments.Mode
	cfg   *machine.Config
}

// inorderCells are the distinct cells of Table 2, Figure 6 and Figure 8:
// every one on the Min memory model with in-order issue. A cell that
// repeats an earlier one (same bench, mode and machine hash, e.g. Figure
// 6's Full interconnect is Table 2's Coupled cell) is kept once, under
// its first label.
func inorderCells(int64) ([]cellSpec, error) {
	var cells []cellSpec
	for _, b := range bench.Names() {
		for _, m := range experiments.Modes() {
			if experiments.ModeSupported(b, m) {
				cells = append(cells, cellSpec{fmt.Sprintf("t2/%s/%s", b, m), b, m, machine.Baseline()})
			}
		}
	}
	for _, b := range bench.Names() {
		for _, ic := range machine.Interconnects() {
			cells = append(cells, cellSpec{fmt.Sprintf("f6/%s/%s", b, ic), b, experiments.COUPLED, machine.Baseline().WithInterconnect(ic)})
		}
	}
	for _, b := range bench.Names() {
		for iu := 1; iu <= 4; iu++ {
			for fpu := 1; fpu <= 4; fpu++ {
				cells = append(cells, cellSpec{fmt.Sprintf("f8/%s/%diu%dfpu", b, iu, fpu), b, experiments.COUPLED, machine.Mix(iu, fpu)})
			}
		}
	}
	return dedupe(cells)
}

// latencyMemSeeds are the statistical-memory seeds of a run: Figure 7's
// 11/23/47 for seed 1, shifted by 1000 per further seed.
func latencyMemSeeds(seed int64) []uint64 {
	shift := uint64(seed-1) * 1000
	return []uint64{11 + shift, 23 + shift, 47 + shift}
}

// latencyCells are the benches under Mem1, Mem2 and Slow memory, three
// memory seeds each, in-order Coupled issue and the CoupledDyn window
// (DynAll: window, TAGE, prefetcher).
func latencyCells(seed int64) ([]cellSpec, error) {
	var cells []cellSpec
	for _, b := range bench.Names() {
		for _, mem := range []machine.MemoryModel{machine.Mem1, machine.Mem2, machine.MemSlow} {
			for _, ms := range latencyMemSeeds(seed) {
				cfg := machine.Baseline().WithMemory(mem).WithSeed(ms)
				cells = append(cells,
					cellSpec{fmt.Sprintf("lat/%s/%s/s%d/inorder", b, mem.Name, ms), b, experiments.COUPLED, cfg},
					cellSpec{fmt.Sprintf("lat/%s/%s/s%d/dyn", b, mem.Name, ms), b, experiments.COUPLED, cfg.WithDynamic(machine.DynAll)})
			}
		}
	}
	return dedupe(cells)
}

func dedupe(cells []cellSpec) ([]cellSpec, error) {
	seen := map[string]bool{}
	var out []cellSpec
	for _, c := range cells {
		h, err := c.cfg.Hash()
		if err != nil {
			return nil, err
		}
		k := c.bench + "/" + string(c.mode) + "/" + h
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// sweepRunner runs a fixed cell set in passes through parexec.Run at
// width nproc until each slice's time is used.
type sweepRunner struct {
	tr    *tracer
	units []*unit // distinct cells, in table order
	width int
	want  map[string]counts // golden counts by label
	seen  map[string]counts // counts of the first pass: later passes must repeat them
	fails *failLog
	done  atomic.Int64 // cells finished

	timing simTiming // traced slices only
	passes []passRec
}

type passRec struct {
	ns, sumNS, maxNS int64 // pass wall time, Σ cell time, longest cell
}

// sweepUnits compiles a cell set.
func sweepUnits(cells func(seed int64) ([]cellSpec, error)) unitsFunc {
	return func(_ context.Context, seed int64, tr *tracer) ([]*unit, error) {
		specs, err := cells(seed)
		if err != nil {
			return nil, err
		}
		ub := newUnitBuilder(tr)
		var units []*unit
		for _, c := range specs {
			u, err := ub.benchUnit(c.label, c.bench, c.mode, c.cfg)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		return units, nil
	}
}

func setupSweep(units unitsFunc) setupFunc {
	return func(ctx context.Context, seed int64, tr *tracer) (runner, error) {
		r := &sweepRunner{tr: tr, width: runtime.NumCPU(), seen: map[string]counts{}, fails: &failLog{}}
		var err error
		if r.units, err = units(ctx, seed, tr); err != nil {
			return nil, err
		}
		if r.want, err = goldenCounts(tr.workload); err != nil {
			return nil, err
		}
		return r, nil
	}
}

func (r *sweepRunner) slice(ctx context.Context, d time.Duration, traced bool, stopAt int64) (tally, error) {
	t := tally{traced: traced}
	r.tr.on.Store(traced)
	defer r.tr.on.Store(false)
	start, allocs := time.Now(), heapAllocs()
	for {
		if err := r.pass(ctx, traced, &t); err != nil {
			return t, err
		}
		if time.Since(start) >= d || r.done.Load() >= stopAt {
			break
		}
	}
	t.elapsed = time.Since(start)
	if traced {
		r.timing.allocs += heapAllocs() - allocs
	}
	return t, nil
}

func (r *sweepRunner) completed() int64 { return r.done.Load() }

// pass runs every cell once. Cells never abort the pass: a failed or
// wrong cell is counted and the rest still run.
func (r *sweepRunner) pass(ctx context.Context, traced bool, t *tally) error {
	tr := r.tr
	n := len(r.units)
	outs := make([]outcome, n)
	errs := make([]error, n)
	passID, p0 := tr.id(), tr.now()
	err := parexec.Run(parexec.WithLimit(ctx, r.width), n, func(i int) error {
		outs[i], errs[i] = simulate(ctx, tr, r.units[i])
		r.done.Add(1)
		return nil
	})
	p1 := tr.now()
	if err != nil {
		return err
	}
	rec := passRec{ns: p1 - p0}
	for i, u := range r.units {
		o := &outs[i]
		t.ops++
		if errs[i] == nil {
			errs[i] = r.checkCounts(u.label, counts{Cycles: o.res.Cycles, Ops: o.res.Ops})
		}
		if errs[i] != nil {
			t.failed++
			r.fails.add(errs[i])
			continue
		}
		cellNS := o.t4 - o.t0
		t.lat = append(t.lat, float64(cellNS)/1e6)
		rec.sumNS += cellNS
		rec.maxNS = max(rec.maxNS, cellNS)
		if traced {
			id := tr.id()
			tr.record(id, passID, "cell", o.t0, o.t4)
			o.record(tr, id, u)
			r.timing.add(u, o)
		}
	}
	if traced {
		tr.record(passID, 0, "parexec.run", p0, p1)
		r.passes = append(r.passes, rec)
	}
	return nil
}

// checkCounts pins a cell's cycle and op counts: to the golden file where
// it holds the cell, and to the first pass's counts.
func (r *sweepRunner) checkCounts(label string, c counts) error {
	if w, ok := r.want[label]; ok && w != c {
		return fmt.Errorf("%s: cycles/ops %d/%d, golden %d/%d", label, c.Cycles, c.Ops, w.Cycles, w.Ops)
	}
	if s, ok := r.seen[label]; ok && s != c {
		return fmt.Errorf("%s: cycles/ops %d/%d differ from the first pass's %d/%d", label, c.Cycles, c.Ops, s.Cycles, s.Ops)
	}
	r.seen[label] = c
	return nil
}

func (r *sweepRunner) ledger(ctx context.Context) (map[string]float64, error) {
	m := map[string]float64{}
	r.timing.metrics(m)
	m["sim.run_share"] = ratio(float64(r.timing.runNS), float64(sumCellNS(r.passes)))
	var passNS, bound float64
	for _, p := range r.passes {
		passNS += float64(p.ns)
		bound += float64(p.ns) / (float64(p.sumNS)/float64(r.width) + float64(p.maxNS))
	}
	np := float64(len(r.passes))
	m["parexec.busy_frac"] = ratio(float64(sumCellNS(r.passes)), float64(r.width)*passNS)
	m["parexec.span_ms"] = ratio(passNS, np) / 1e6
	m["parexec.bound_ratio"] = ratio(bound, np)
	spans := aggregate(r.tr.snapshot())
	m["sexpr.parse_us"] = spans["sexpr.parse"].meanUS()
	m["compiler.compile_ms"] = spans["compiler.compile"].meanMS()
	model, err := modelPass(ctx, r.tr, r.units)
	if err != nil {
		return nil, err
	}
	for k, v := range model {
		m[k] = v
	}
	return m, nil
}

func sumCellNS(ps []passRec) int64 {
	var t int64
	for _, p := range ps {
		t += p.sumNS
	}
	return t
}

func (r *sweepRunner) failures() *failLog { return r.fails }
func (r *sweepRunner) close() error       { return nil }
