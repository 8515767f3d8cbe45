package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// The fleetfair experiment measures multi-tenant isolation through the
// gateway: an interactive tenant submits small single-cell jobs while a
// batch tenant floods the fleet with sweeps, and the interactive p50/p99
// latency is compared between a shared-tenant baseline (both streams
// submitted as one tenant, so DRR degenerates to arrival order and the
// batch backlog queues ahead of everything; labelled "fifo") and
// per-tenant DRR dispatch (interactive-class cells are served first).
// This is the paper's static-placement vs runtime-arbitration tradeoff
// lifted to the fleet: arrival order is the fixed compile-time
// schedule, DRR the runtime scheduler reordering around a stalled
// (here: flooded) resource. Every submission carries a distinct
// cycle budget so nothing is served from cache — the measurement is
// queueing, not cache luck. It lives in package fleet because the
// service layer imports internal/experiments; pcbench links it in via a
// blank import.
func init() {
	experiments.Register(experiments.Experiment{
		Name:      "fleetfair",
		Brief:     "interactive p50/p99 under batch flood, shared-tenant FIFO vs DRR dispatch (extension; spawns local daemons)",
		SkipInAll: true,
		Run:       func(rc *experiments.RunContext) (any, error) { return FleetFair(rc.Context()) },
		Write: func(w io.Writer, _ *machine.Config, rows any) {
			WriteFleetFair(w, rows.([]FleetFairRow))
		},
	})
}

// FleetFairRow is one (backend count, tenancy) configuration.
type FleetFairRow struct {
	// Backends is the pcserved count behind the gateway.
	Backends int `json:"backends"`
	// Sched is "fifo" (both streams as one shared unlimited tenant:
	// arrival order) or "drr" (an interactive and a batch tenant).
	Sched string `json:"sched"`
	// BaseP50MS/BaseP99MS are interactive latencies on an idle fleet.
	BaseP50MS float64 `json:"base_p50_ms"`
	BaseP99MS float64 `json:"base_p99_ms"`
	// FloodP50MS/FloodP99MS are interactive latencies under batch flood.
	FloodP50MS float64 `json:"flood_p50_ms"`
	FloodP99MS float64 `json:"flood_p99_ms"`
	// Steals is how many cells moved between backend queues.
	Steals int64 `json:"steals"`
}

const (
	fleetFairSamples  = 8 // interactive jobs per measurement
	fleetFairOutstand = 2 // batch sweeps kept in flight during the flood
)

// fleetFairCycles hands out a distinct cycle budget per submission so
// every job has a distinct content key (no cross-submission cache hits).
var fleetFairCycles atomic.Int64

func nextFairOptions() service.SimOptions {
	return service.SimOptions{MaxCycles: 10_000_000 + fleetFairCycles.Add(1)}
}

// FleetFair measures the shared-tenant baseline and per-tenant DRR at
// 1, 2, and 4 backends.
func FleetFair(ctx context.Context) ([]FleetFairRow, error) {
	var rows []FleetFairRow
	for _, n := range []int{1, 2, 4} {
		for _, sched := range []string{"fifo", "drr"} {
			row, err := fleetFairOne(ctx, n, sched)
			if err != nil {
				return nil, fmt.Errorf("fleetfair %d backends %s: %w", n, sched, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// fleetFairOne boots n fresh backends plus a gateway and measures
// interactive latency idle and flooded, with the two streams submitted
// as separate tenants (drr) or as one shared tenant (fifo).
func fleetFairOne(ctx context.Context, n int, sched string) (*FleetFairRow, error) {
	var urls []string
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		url, stop, err := startLocalBackend()
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
		stops = append(stops, stop)
	}

	gw, err := New(Options{
		Pool: PoolOptions{Backends: urls, ProbeInterval: 200 * time.Millisecond},
		// One dispatch worker per backend: contention for the worker is
		// the whole point of the measurement.
		BackendConcurrency: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}
	stops = append(stops, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Shutdown(sctx)
	})

	interactive, err := tenant.New(tenant.Spec{Name: "interactive", Weight: 8, Class: "interactive"})
	if err != nil {
		return nil, err
	}
	batch, err := tenant.New(tenant.Spec{Name: "batch", Weight: 1, Class: "batch"})
	if err != nil {
		return nil, err
	}
	if sched == "fifo" {
		// Both streams share one unlimited tenant, hence one queue per
		// backend: cells pop in arrival order, so interactive cells wait
		// behind the whole batch backlog.
		batch = interactive
	}

	base, err := fleetFairSample(ctx, gw, interactive)
	if err != nil {
		return nil, err
	}

	floodCtx, stopFlood := context.WithCancel(ctx)
	floodDone := make(chan struct{})
	go fleetFairFlood(floodCtx, gw, batch, floodDone)
	flooded, err := fleetFairSample(ctx, gw, interactive)
	stopFlood()
	<-floodDone
	if err != nil {
		return nil, err
	}

	slices.Sort(base)
	slices.Sort(flooded)
	return &FleetFairRow{
		Backends:   n,
		Sched:      sched,
		BaseP50MS:  durMS(sortedQuantile(base, 0.50)),
		BaseP99MS:  durMS(sortedQuantile(base, 0.99)),
		FloodP50MS: durMS(sortedQuantile(flooded, 0.50)),
		FloodP99MS: durMS(sortedQuantile(flooded, 0.99)),
		Steals:     gw.Metrics().Steals(),
	}, nil
}

// startLocalBackend boots one in-process pcserved (loopback listener,
// cold cache) and returns its base URL plus a stop function.
func startLocalBackend() (string, func(), error) {
	srv := service.New(service.Options{})
	if err := srv.Start(); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		httpSrv.Shutdown(context.Background())
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// fleetFairSample runs sequential interactive single-cell jobs and
// returns their latencies.
func fleetFairSample(ctx context.Context, gw *Gateway, ten *tenant.Tenant) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, fleetFairSamples)
	for i := 0; i < fleetFairSamples; i++ {
		spec := service.JobSpec{
			Cell:    &service.CellSpec{Bench: "matrix", Mode: "Coupled"},
			Options: nextFairOptions(),
		}
		start := time.Now()
		job, err := gw.SubmitAs(spec, ten)
		if err != nil {
			return nil, err
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			gw.jobs.Cancel(job.ID())
			<-job.Done()
			return nil, ctx.Err()
		}
		if v := job.View(false); v.State != service.JobDone {
			return nil, fmt.Errorf("interactive job %s: %s", v.State, v.Error)
		}
		lats = append(lats, time.Since(start))
	}
	return lats, nil
}

// fleetFairFlood keeps fleetFairOutstand batch sweeps in flight until
// the context is cancelled, then cancels the stragglers and drains.
func fleetFairFlood(ctx context.Context, gw *Gateway, ten *tenant.Tenant, done chan<- struct{}) {
	defer close(done)
	slots := make(chan struct{}, fleetFairOutstand)
	var inflight []*service.Job
	for {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			for _, job := range inflight {
				gw.jobs.Cancel(job.ID())
			}
			for _, job := range inflight {
				<-job.Done()
			}
			return
		}
		spec := service.JobSpec{
			Sweep:   &service.SweepSpec{Benches: []string{"fft", "matrix"}, MinIU: 1, MaxIU: 3},
			Options: nextFairOptions(),
		}
		job, err := gw.SubmitAs(spec, ten)
		if err != nil {
			<-slots
			continue
		}
		inflight = append(inflight, job)
		go func(j *service.Job) {
			<-j.Done()
			<-slots
		}(job)
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteFleetFair renders the fairness table plus the shared-tenant to
// DRR p99 improvement at each fleet size.
func WriteFleetFair(w io.Writer, rows []FleetFairRow) {
	fmt.Fprintf(w, "Fleet fairness: interactive latency with and without a batch sweep flood\n")
	fmt.Fprintf(w, "(fifo: both streams as one shared tenant, served in arrival order; drr:\n")
	fmt.Fprintf(w, "separate tenants under weighted deficit round-robin with strict\n")
	fmt.Fprintf(w, "interactive-before-batch class priority; both steal from queue tails)\n\n")
	fmt.Fprintf(w, "%9s %6s %10s %10s %11s %11s %7s\n",
		"backends", "sched", "idle p50", "idle p99", "flood p50", "flood p99", "steals")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d %6s %8.1fms %8.1fms %9.1fms %9.1fms %7d\n",
			r.Backends, r.Sched, r.BaseP50MS, r.BaseP99MS, r.FloodP50MS, r.FloodP99MS, r.Steals)
	}
	fmt.Fprintf(w, "\n")
	byKey := map[string]FleetFairRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%d/%s", r.Backends, r.Sched)] = r
	}
	for _, n := range []int{1, 2, 4} {
		fifo, okF := byKey[fmt.Sprintf("%d/fifo", n)]
		drr, okD := byKey[fmt.Sprintf("%d/drr", n)]
		if okF && okD && drr.FloodP99MS > 0 {
			fmt.Fprintf(w, "%d backend(s): drr improves flooded interactive p99 %.1fx over fifo\n",
				n, fifo.FloodP99MS/drr.FloodP99MS)
		}
	}
}

// sortedQuantile returns the q-quantile of an ascending slice by rank:
// sorted[min(⌊q·n⌋, n−1)], or 0 for an empty slice.
func sortedQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}
