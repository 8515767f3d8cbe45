package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// runner is a workload after setup.
type runner interface {
	// slice runs the load for about d with tracing on or off, then lets
	// every operation in flight finish, and tallies what completed.
	// No operation starts once stopAt operations have.
	slice(ctx context.Context, d time.Duration, traced bool, stopAt int64) (tally, error)
	// completed counts the operations finished so far.
	completed() int64
	// ledger derives the per-layer metrics of a traced run: from the spans
	// of its traced slices, the servers' counters, and untimed replays.
	ledger(ctx context.Context) (map[string]float64, error)
	failures() *failLog
	close() error
}

type (
	setupFunc func(ctx context.Context, seed int64, tr *tracer) (runner, error)
	// unitsFunc builds the units whose cycle and op counts the golden
	// file pins for seed 1.
	unitsFunc func(ctx context.Context, seed int64, tr *tracer) ([]*unit, error)
)

// window is one stretch of measured time, traced or not.
type window struct {
	d      time.Duration
	traced bool
}

// tally is what one slice, or the merge of several, measured. Times are
// normalized to the reference host speed; raw keeps the wall-clock ones.
type tally struct {
	traced      bool
	elapsed     time.Duration
	ops, failed int64
	lat         []float64 // ms per op
	raw         struct {
		elapsed time.Duration
		lat     []float64
	}
}

// normalize rescales the slice's times by the host speed measured around
// it, keeping the wall-clock values in raw.
func (t *tally) normalize(speed float64) {
	t.raw.elapsed, t.raw.lat = t.elapsed, append([]float64(nil), t.lat...)
	t.elapsed = time.Duration(float64(t.elapsed) * speed)
	for i := range t.lat {
		t.lat[i] *= speed
	}
}

func merge(dst *tally, t tally) {
	dst.elapsed += t.elapsed
	dst.ops += t.ops
	dst.failed += t.failed
	dst.lat = append(dst.lat, t.lat...)
	dst.raw.elapsed += t.raw.elapsed
	dst.raw.lat = append(dst.raw.lat, t.raw.lat...)
}

type workload struct {
	name  string
	setup setupFunc
	units unitsFunc
	// memAt is the operation count after which heap_live_mb is read.
	memAt int64
}

// workloads are the benchmark's inputs; BENCHMARK.json says why each was
// chosen. Two sweeps split the simulator's two regimes, and two service
// loops split the request path's: compile-bound misses and cached hits.
var workloads = []workload{
	// Every cycle busy: the in-order issue path carries the run, and the
	// compiler shows only in setup_s.
	{name: "sweep-inorder", setup: setupSweep(sweepUnits(inorderCells)), units: sweepUnits(inorderCells), memAt: 1000},
	// Most cycles skipped by the event core, half the cells on the
	// dynsched window path.
	{name: "sweep-latency", setup: setupSweep(sweepUnits(latencyCells)), units: sweepUnits(latencyCells), memAt: 720},
	// Every request a cache miss: compile, run three times per request,
	// dominates. The golden check covers a sample of the corpus here;
	// every run checks all of it.
	{name: "programs", setup: setupPrograms, memAt: 4000,
		units: func(ctx context.Context, _ int64, tr *tracer) ([]*unit, error) {
			return programUnits(ctx, tr, 256, nil)
		}},
	// Nine requests in ten hit a backend cache: the request path carries
	// the load.
	{name: "cells-cached", setup: setupCached, units: cachedUnits, memAt: 8000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// failLog keeps the first few failure messages of a run (the tallies
// count the failures).
type failLog struct {
	mu    sync.Mutex
	first []string
}

func (f *failLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

func (f *failLog) messages() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.first...)
}

// runOpts configures one in-process run of a workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string    // span file of a traced run ("" writes none)
	start   time.Time // setup_s counts from here (process start in a child)
	// setupOnly stops after setup: the run reports setup_s alone.
	setupOnly bool
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one workload run: the contract result
// plus sample counts, notes, and run metadata.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Notes     []string               `json:"notes,omitempty"`
	// Raw holds the wall-clock values behind the normalized metrics, and
	// host_speed: reference seconds per wall second over the run.
	Raw map[string]float64 `json:"raw"`
	// SetupS holds every setup time behind the reported setup_s median.
	SetupS []float64 `json:"setup_s_samples,omitempty"`
	Meta   *meta     `json:"meta,omitempty"`
}

// runWorkload sets up, measures and tears down one workload in this
// process.
func runWorkload(ctx context.Context, w workload, o runOpts) (*record, error) {
	cal := newCalibrator(runtime.NumCPU())
	calStart := time.Now()
	c0 := cal.cost()
	calWall := time.Since(calStart)
	tr := newTracer(w.name)
	tr.on.Store(o.trace)
	r, err := w.setup(ctx, o.seed, tr)
	tr.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	setupEnd := time.Now()
	c1 := cal.cost()
	// Setup counts from process start, less the calibration before it.
	setupRaw := (setupEnd.Sub(o.start) - calWall).Seconds()
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Raw: map[string]float64{},
		SetupS: []float64{setupRaw * speed(c0, c1)}}
	rec.Raw["setup_s"] = setupRaw
	if o.setupOnly {
		return rec, r.close()
	}
	d := time.Duration(o.seconds * float64(time.Second))
	plan := []window{{d, false}}
	if o.trace {
		// Untraced, traced, traced, untraced: a rate that drifts linearly
		// over the run weighs the same on both sides.
		plan = []window{{d / 4, false}, {d / 4, true}, {d / 4, true}, {d / 4, false}}
	}
	var slices []tally
	var all tally
	heapMB, reached := 0.0, false
	before := c1
	for _, win := range plan {
		start := time.Now()
		for time.Since(start) < win.d {
			stopAt := int64(math.MaxInt64)
			if !reached {
				stopAt = w.memAt
			}
			t, err := r.slice(ctx, sliceLen, win.traced, stopAt)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if !reached && r.completed() >= w.memAt {
				heapMB, reached = heapLiveMB(), true
			}
			after := cal.cost()
			t.normalize(speed(before, after))
			before = after
			slices = append(slices, t)
			merge(&all, t)
		}
	}
	if !reached {
		heapMB = heapLiveMB()
	}
	rec.Attempted, rec.Failed = all.ops, all.failed
	if o.trace {
		m, err := r.ledger(ctx)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("%s ledger: %w", w.name, err)
		}
		m["trace.overhead_frac"] = 1 - ratio(medianRate(slices, true), medianRate(slices, false))
		units := metricUnits(layerMetrics)
		for name, v := range m {
			if _, ok := units[name]; !ok {
				r.close()
				return nil, fmt.Errorf("%s: ledger reports undeclared metric %q", w.name, name)
			}
			rec.Metrics[name] = metricValue{v, units[name]}
		}
		for name, unit := range units {
			if _, ok := rec.Metrics[name]; !ok {
				rec.Metrics[name] = metricValue{0, unit}
			}
		}
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				r.close()
				return nil, err
			}
		}
	} else {
		e2e(rec, slices, all)
		rec.Metrics["heap_live_mb"] = metricValue{heapMB, "MB"}
		rec.Samples["heap_live_mb"] = 1
		if !reached {
			rec.Notes = append(rec.Notes, fmt.Sprintf("heap_live_mb: read at the end, before %d operations completed", w.memAt))
		}
	}
	rec.Raw["host_speed"] = ratio(all.elapsed.Seconds(), all.raw.elapsed.Seconds())
	rec.Errors = r.failures().messages()
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("%s shutdown: %w", w.name, err)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// rate is jobs per normalized second.
func rate(t tally) float64 {
	return ratio(float64(t.ops-t.failed), t.elapsed.Seconds())
}

// medianRate is the median rate of the traced or untraced slices.
func medianRate(slices []tally, traced bool) float64 {
	var rates []float64
	for _, t := range slices {
		if t.traced == traced {
			rates = append(rates, rate(t))
		}
	}
	return median(rates)
}

// heapLiveMB collects garbage and returns the live heap. It runs between
// slices, with no operation in flight, so it counts only what the
// process retains.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// e2e fills the end-to-end metrics of an untraced run except
// heap_live_mb and setup_s (the parent's median over setups), with the
// raw wall-clock counterparts in rec.Raw. Throughput and mean latency are
// medians over slices, so a slice the host speed reading missed cannot
// move them.
func e2e(rec *record, slices []tally, all tally) {
	var rates, rawRates, means, rawMeans []float64
	for _, t := range slices {
		if ok := t.ops - t.failed; ok > 0 {
			rates = append(rates, rate(t))
			rawRates = append(rawRates, ratio(float64(ok), t.raw.elapsed.Seconds()))
			means = append(means, mean(t.lat))
			rawMeans = append(rawMeans, mean(t.raw.lat))
		}
	}
	put := func(name string, v, raw float64, n int) {
		rec.Metrics[name] = metricValue{v, metricUnits(e2eMetrics)[name]}
		rec.Raw[name] = raw
		rec.Samples[name] = n
	}
	put("jobs_per_s", median(rates), median(rawRates), len(rates))
	put("latency_mean_ms", median(means), median(rawMeans), len(means))
	// The tail is reported as a note, not a metric: its run-to-run spread
	// on a shared host (up to 0.09) exceeds a third of the widest bound.
	if p99, ok := percentile(all.lat, 0.99); ok {
		rec.Notes = append(rec.Notes, fmt.Sprintf("latency p99 %.4g ms over %d jobs", p99, len(all.lat)))
	} else {
		rec.Notes = append(rec.Notes, fmt.Sprintf("latency p99 not reportable: %d jobs leave fewer than %d beyond it", len(all.lat), minTail))
	}
	rec.Metrics["setup_s"] = metricValue{rec.SetupS[0], "s"}
	rec.Samples["setup_s"] = 1
}

// defaultSpansPath is where a traced run writes its spans, under the
// ignored build directory of the checkout.
func defaultSpansPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
}
