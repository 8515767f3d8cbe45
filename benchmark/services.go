package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/fleet"
	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
	"pcoup/internal/service"
	"pcoup/internal/sexpr"
	"pcoup/internal/sim"
)

// parentHeader carries the client span id to the gateway's timing
// middleware, so gateway spans hang under the client call that caused
// them. The gateway does not forward it, so backend spans are roots.
const parentHeader = "X-Bench-Parent"

const (
	// corpusSize is how many programs the programs workload's corpus
	// holds. A run submits the corpus in its seed's order, round after
	// round; every round after the first sets a new max_cycles, a new
	// content key, so every request still misses the cache.
	corpusSize = 2048
	// corpusMaxCycles admits a generated program to the corpus only if it
	// completes within this many cycles. Generated programs are heavy
	// tailed: the median runs about 100 cycles, but 1 in 800 runs past
	// 10^5 and a few exceed the service's 10^7 budget, which ends the job
	// as budget_exceeded. The longest few would otherwise decide a run's
	// throughput by whether its inputs included them.
	corpusMaxCycles = 20_000
	// replaySample is how many inputs the traced run replays directly
	// through the layers for per-layer times and exact counters.
	replaySample = 64
	// cachedCacheEntries bounds each backend's result cache on
	// cells-cached, so fresh keys evict while hot keys are read.
	cachedCacheEntries = 512
	// freshEvery makes every 10th cells-cached request carry a new
	// max_cycles: a new content key for the same simulation.
	freshEvery = 10
)

// svcRunner drives an in-process pcfleet over two pcserved backends with
// a closed loop of nproc clients: each client sends its next request only
// after its previous one returned a checked result.
type svcRunner struct {
	tr       *tracer
	fails    *failLog
	backends []*service.Server
	gw       *fleet.Gateway
	servers  []*http.Server
	serveWG  sync.WaitGroup
	gwURL    string
	client   *http.Client
	clients  int
	next     atomic.Int64 // request sequence number
	done     atomic.Int64 // requests answered
	// do sends request i and checks its result.
	do func(ctx context.Context, c *call, i int64) error

	// programs
	pool    []string // the corpus in the seed's order
	poolIdx []int    // corpus index of each pool entry
	want    map[string]counts
	// cells-cached
	kinds    []cachedKind
	hitMix   []int // kind of the i-th hit request
	freshMix []int // kind of the i-th fresh request
	units    []*unit

	// measured
	first         time.Time // start of the first slice
	before, after svcCounters
	tracedFrom    []time.Time // traced slices, wall-clock [from, to)
	tracedTo      []time.Time
	doneAt        []time.Duration // completion times since first
}

// cachedKind is one distinct cells-cached request with its reference
// stream, fetched once in setup.
type cachedKind struct {
	name string
	spec service.JobSpec
	body []byte // spec JSON
	ref  []byte // reference NDJSON stream
}

// generateProgram is corpus candidate i: progfuzz program i, every 11th
// one wide, with foralls spanning whole arrays for hundreds of threads.
// Wide arrays stop at 128 elements: at fuzzdiff's 512, about 9% of wide
// programs exceed ServiceLimits' 512 threads and are refused with 422
// (1% at 256; none of 9600 at 128), and a refusal is a failed request.
func generateProgram(i int) string {
	o := progfuzz.GenOptions{}
	if i%11 == 10 {
		o = progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}
	}
	return progfuzz.GenerateOpts(int64(i), o)
}

func programLabel(i int) string { return fmt.Sprintf("prog/%04d", i) }

// programCorpus returns the corpus: the candidates the golden file
// admits, in index order.
func programCorpus() (idx []int, srcs []string, err error) {
	want, err := goldenCounts("programs")
	if err != nil {
		return nil, nil, err
	}
	if len(want) != corpusSize {
		return nil, nil, fmt.Errorf("golden file holds %d corpus programs, want %d", len(want), corpusSize)
	}
	for i := 0; len(idx) < corpusSize; i++ {
		if _, ok := want[programLabel(i)]; ok {
			idx = append(idx, i)
			srcs = append(srcs, generateProgram(i))
		}
	}
	return idx, srcs, nil
}

// admitCorpus picks the corpus for the golden file: candidates in index
// order that are new (no earlier candidate has the same source) and
// complete within corpusMaxCycles, with their counts.
func admitCorpus(ctx context.Context) (map[string]counts, error) {
	out := map[string]counts{}
	seen := map[string]bool{}
	for i := 0; len(out) < corpusSize; i++ {
		src := generateProgram(i)
		if seen[src] {
			continue
		}
		seen[src] = true
		u, err := programUnit(ctx, programLabel(i), src)
		if err != nil {
			return nil, err
		}
		u.maxCycles = corpusMaxCycles
		o, err := simulate(ctx, newTracer("programs"), u)
		var be *sim.BudgetError
		switch {
		case errors.As(err, &be):
			continue
		case err != nil:
			return nil, err
		}
		out[u.label] = counts{Cycles: o.res.Cycles, Ops: o.res.Ops}
	}
	return out, nil
}

// programUnit compiles one program the way a backend does:
// CompileBounded under ServiceLimits on the baseline machine.
func programUnit(ctx context.Context, label, src string) (*unit, error) {
	cfg := machine.Baseline()
	prog, _, err := compiler.CompileBounded(ctx, src, cfg, programOptions, compiler.ServiceLimits())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return &unit{
		label: label, mode: experiments.COUPLED, cfg: cfg, prog: prog,
		maxCycles: service.DefaultProgramCycles,
		check:     oracleCheck(src, prog), checkLayer: "oracle.run",
	}, nil
}

// programOptions are the compiler options of a program job with default
// knobs (Coupled mode).
var programOptions = compiler.Options{Mode: experiments.CompilerMode(experiments.COUPLED)}

// programUnits compiles the first n corpus programs. The stats map, when
// non-nil, receives the mean parse, unbounded compile and bounded compile
// times of their sources.
func programUnits(ctx context.Context, tr *tracer, n int, stats map[string]float64) ([]*unit, error) {
	idx, srcs, err := programCorpus()
	if err != nil {
		return nil, err
	}
	idx, srcs = idx[:n], srcs[:n]
	var parseNS, compileNS, boundedNS int64
	var units []*unit
	for k, src := range srcs {
		t0 := tr.now()
		forms, err := sexpr.Parse(src)
		t1 := tr.now()
		if err != nil {
			return nil, err
		}
		if _, _, err := compiler.CompileForms(forms, machine.Baseline(), programOptions); err != nil {
			return nil, err
		}
		t2 := tr.now()
		u, err := programUnit(ctx, programLabel(idx[k]), src)
		t3 := tr.now()
		if err != nil {
			return nil, err
		}
		parseNS, compileNS, boundedNS = parseNS+t1-t0, compileNS+t2-t1, boundedNS+t3-t2
		units = append(units, u)
	}
	if stats != nil {
		n := float64(len(units))
		stats["sexpr.parse_us"] = float64(parseNS) / n / 1e3
		stats["compiler.compile_ms"] = float64(compileNS) / n / 1e6
		stats["compiler.bounded_compile_ms"] = float64(boundedNS) / n / 1e6
	}
	return units, nil
}

func setupPrograms(ctx context.Context, seed int64, tr *tracer) (runner, error) {
	r := &svcRunner{tr: tr, fails: &failLog{}}
	idx, srcs, err := programCorpus()
	if err != nil {
		return nil, err
	}
	if r.want, err = goldenCounts(tr.workload); err != nil {
		return nil, err
	}
	for _, k := range rand.New(rand.NewSource(seed)).Perm(len(srcs)) {
		r.pool = append(r.pool, srcs[k])
		r.poolIdx = append(r.poolIdx, idx[k])
	}
	r.do = r.doProgram
	if err := r.boot(service.Options{}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// cachedUnits are the cells behind the cells-cached requests: the 18
// Table 2 cells and the cells of two 4-cell unit-mix sweeps.
func cachedUnits(_ context.Context, _ int64, tr *tracer) ([]*unit, error) {
	ub := newUnitBuilder(tr)
	var units []*unit
	for _, b := range bench.Names() {
		for _, m := range experiments.Modes() {
			if !experiments.ModeSupported(b, m) {
				continue
			}
			u, err := ub.benchUnit(fmt.Sprintf("cell/%s/%s", b, m), b, m, machine.Baseline())
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	for _, sw := range cachedSweeps() {
		for _, c := range sw.Cells() {
			u, err := ub.benchUnit(sweepLabel(c), c.Bench, experiments.COUPLED, machine.Mix(c.IU, c.FPU))
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

func cachedSweeps() []*service.SweepSpec {
	var out []*service.SweepSpec
	for _, b := range []string{"matrix", "fft"} {
		sw := &service.SweepSpec{Benches: []string{b}, Mode: string(experiments.COUPLED), MinIU: 1, MaxIU: 2}
		if err := sw.Normalize(); err != nil {
			panic(err) // a fixed, valid spec
		}
		out = append(out, sw)
	}
	return out
}

func sweepLabel(c service.SweepCell) string {
	return fmt.Sprintf("sweep/%s/%diu%dfpu", c.Bench, c.IU, c.FPU)
}

func setupCached(ctx context.Context, seed int64, tr *tracer) (runner, error) {
	r := &svcRunner{tr: tr, fails: &failLog{}}
	var err error
	if r.units, err = cachedUnits(ctx, seed, tr); err != nil {
		return nil, err
	}
	for _, u := range r.units {
		if c := strings.Split(u.label, "/"); c[0] == "cell" {
			r.kinds = append(r.kinds, cachedKind{name: u.label, spec: service.JobSpec{Cell: &service.CellSpec{Bench: c[1], Mode: c[2]}}})
		}
	}
	for _, sw := range cachedSweeps() {
		r.kinds = append(r.kinds, cachedKind{name: "sweep/" + sw.Benches[0], spec: service.JobSpec{Sweep: sw}})
	}
	// The expected counts come from simulating every cell directly, not
	// through the service.
	direct := map[string]counts{}
	for _, u := range r.units {
		o, err := simulate(ctx, tr, u)
		if err != nil {
			return nil, err
		}
		direct[u.label] = counts{Cycles: o.res.Cycles, Ops: o.res.Ops}
	}
	want, err := goldenCounts(tr.workload)
	if err != nil {
		return nil, err
	}
	for label, c := range want {
		if direct[label] != c {
			return nil, fmt.Errorf("%s: direct simulation gives cycles/ops %d/%d, golden %d/%d", label, direct[label].Cycles, direct[label].Ops, c.Cycles, c.Ops)
		}
	}
	// Every block of 200 requests sends each kind nine times as a hit and
	// once fresh, in the seed's order, so seeds vary the order, not the mix.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < freshEvery-1; i++ {
		r.hitMix = append(r.hitMix, rng.Perm(len(r.kinds))...)
	}
	r.freshMix = rng.Perm(len(r.kinds))
	r.do = r.doCached
	if err := r.boot(service.Options{CacheMaxEntries: cachedCacheEntries}); err != nil {
		r.close()
		return nil, err
	}
	for k := range r.kinds {
		if err := r.fetchReference(ctx, &r.kinds[k], direct); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// boot starts two backends and the gateway on loopback listeners, each
// handler wrapped in the timing middleware.
func (r *svcRunner) boot(opts service.Options) error {
	r.clients = runtime.NumCPU()
	r.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: r.clients, MaxConnsPerHost: r.clients, DisableCompression: true,
	}}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := service.New(opts)
		if err := srv.Start(); err != nil {
			return err
		}
		r.backends = append(r.backends, srv)
		url, err := r.serve(r.instrument("service", srv.Handler()))
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	gw, err := fleet.New(fleet.Options{Pool: fleet.PoolOptions{Backends: urls}})
	if err != nil {
		return err
	}
	if err := gw.Start(); err != nil {
		return err
	}
	r.gw = gw
	r.gwURL, err = r.serve(r.instrument("fleet", gw.Handler()))
	return err
}

func (r *svcRunner) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// instrument records one span per request while tracing is on, named
// by layer and route, under the client span named in parentHeader.
func (r *svcRunner) instrument(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.tr.id()
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(parentHeader), 10, 64)
		t0 := r.tr.now()
		h.ServeHTTP(w, req)
		r.tr.record(id, parent, layer+"."+routeName(req), t0, r.tr.now())
	})
}

func routeName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost:
		return "submit"
	case req.Method == http.MethodDelete:
		return "cancel"
	case strings.HasSuffix(p, "/stream"):
		return "stream"
	case strings.HasPrefix(p, "/v1/cache/"):
		return "cache"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "get"
	case p == "/readyz" || p == "/healthz":
		return "probe"
	}
	return "other"
}

// call is one client request: a submit, then the job's NDJSON stream
// followed to its end. Its span ids are 0 unless the request began while
// tracing was on.
type call struct {
	root, submit, stream int64
	t0, t1, t2           int64 // start, submit answered, stream ended
}

func (r *svcRunner) newCall() *call {
	c := &call{root: r.tr.id(), t0: r.tr.now()}
	if c.root != 0 {
		c.submit, c.stream = r.tr.id(), r.tr.id()
	}
	return c
}

func (c *call) record(tr *tracer) {
	if c.root == 0 {
		return
	}
	tr.record(c.submit, c.root, "client.submit", c.t0, c.t1)
	tr.record(c.stream, c.root, "client.stream", c.t1, c.t2)
	tr.record(c.root, 0, "client.request", c.t0, c.t2)
}

// roundTrip posts body to path and returns the job's whole stream.
func (r *svcRunner) roundTrip(ctx context.Context, c *call, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.gwURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.submit != 0 {
		req.Header.Set(parentHeader, strconv.FormatInt(c.submit, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || view.ID == "" {
		return nil, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	c.t1 = r.tr.now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, r.gwURL+"/v1/jobs/"+view.ID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	if c.stream != 0 {
		req.Header.Set(parentHeader, strconv.FormatInt(c.stream, 10))
	}
	resp, err = r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.t2 = r.tr.now()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: HTTP %d", view.ID, resp.StatusCode)
	}
	return data, nil
}

// splitStream separates an NDJSON job stream into its data lines and
// checks that the terminal status line says done.
func splitStream(data []byte) ([][]byte, error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var status struct {
		State service.JobState `json:"state"`
		Error string           `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &status); err != nil {
		return nil, fmt.Errorf("stream: no status line: %w", err)
	}
	if status.State != service.JobDone {
		return nil, fmt.Errorf("job %s: %s", status.State, status.Error)
	}
	return lines[:len(lines)-1], nil
}

// doProgram submits pool program i mod the pool size with verify on. The
// result must be done, verified against the reference interpreter, and
// have the golden cycle and op counts.
func (r *svcRunner) doProgram(ctx context.Context, c *call, i int64) error {
	k := int(i % int64(len(r.pool)))
	idx := r.poolIdx[k]
	preq := service.ProgramRequest{ProgramSpec: service.ProgramSpec{Source: r.pool[k], Verify: true}}
	if round := i / int64(len(r.pool)); round > 0 {
		preq.Options.MaxCycles = service.DefaultProgramCycles + round
	}
	body, err := json.Marshal(preq)
	if err != nil {
		return err
	}
	data, err := r.roundTrip(ctx, c, "/v1/programs", body)
	if err != nil {
		return fmt.Errorf("program %d: %w", idx, err)
	}
	lines, err := splitStream(data)
	if err != nil || len(lines) != 1 {
		return fmt.Errorf("program %d: %v (%d data lines)", idx, err, len(lines))
	}
	var res service.ProgramResult
	if err := json.Unmarshal(lines[0], &res); err != nil {
		return fmt.Errorf("program %d: %w", idx, err)
	}
	if !res.Verified {
		return fmt.Errorf("program %d: result not verified", idx)
	}
	if w := r.want[programLabel(idx)]; w != (counts{Cycles: res.Cycles, Ops: res.Ops}) {
		return fmt.Errorf("program %d: cycles/ops %d/%d, golden %d/%d", idx, res.Cycles, res.Ops, w.Cycles, w.Ops)
	}
	return nil
}

// doCached sends request i: every freshEvery-th carries a new max_cycles,
// the rest repeat their kind's reference request. The stream must be
// byte-identical to the kind's reference.
func (r *svcRunner) doCached(ctx context.Context, c *call, i int64) error {
	fresh := i%freshEvery == freshEvery-1
	var k *cachedKind
	if fresh {
		k = &r.kinds[r.freshMix[(i/freshEvery)%int64(len(r.freshMix))]]
	} else {
		k = &r.kinds[r.hitMix[(i-i/freshEvery)%int64(len(r.hitMix))]]
	}
	body := k.body
	if fresh {
		spec := k.spec
		spec.Options.MaxCycles = 1_000_000_000 + i
		var err error
		if body, err = json.Marshal(spec); err != nil {
			return err
		}
	}
	data, err := r.roundTrip(ctx, c, "/v1/jobs", body)
	if err != nil {
		return fmt.Errorf("%s: %w", k.name, err)
	}
	if !bytes.Equal(data, k.ref) {
		return fmt.Errorf("%s: stream differs from its reference", k.name)
	}
	return nil
}

// fetchReference runs kind k once through the fleet and keeps its stream
// as the reference, after checking each cell's cycles and ops against the
// direct simulation.
func (r *svcRunner) fetchReference(ctx context.Context, k *cachedKind, direct map[string]counts) error {
	var err error
	if k.body, err = json.Marshal(k.spec); err != nil {
		return err
	}
	data, err := r.roundTrip(ctx, r.newCall(), "/v1/jobs", k.body)
	if err != nil {
		return fmt.Errorf("reference %s: %w", k.name, err)
	}
	lines, err := splitStream(data)
	if err != nil {
		return fmt.Errorf("reference %s: %w", k.name, err)
	}
	labels := []string{k.name}
	if sw := k.spec.Sweep; sw != nil {
		labels = nil
		for _, c := range sw.Cells() {
			labels = append(labels, sweepLabel(c))
		}
	}
	if len(lines) != len(labels) {
		return fmt.Errorf("reference %s: %d data lines, want %d", k.name, len(lines), len(labels))
	}
	for i, l := range lines {
		var cell service.CellResult
		if err := json.Unmarshal(l, &cell); err != nil {
			return fmt.Errorf("reference %s: %w", k.name, err)
		}
		if got := (counts{Cycles: cell.Cycles, Ops: cell.Ops}); got != direct[labels[i]] {
			return fmt.Errorf("reference %s: cycles/ops %d/%d, direct simulation %d/%d", labels[i], got.Cycles, got.Ops, direct[labels[i]].Cycles, direct[labels[i]].Ops)
		}
	}
	k.ref = data
	return nil
}

// slice runs the clients for d: each sends its next request only after
// the last one returned, and none starts a request after d. Requests in
// flight at d are waited for and counted.
func (r *svcRunner) slice(ctx context.Context, d time.Duration, traced bool, stopAt int64) (tally, error) {
	start := time.Now()
	if r.first.IsZero() {
		r.first, r.before = start, r.counters()
	}
	r.tr.on.Store(traced)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		t    = tally{traced: traced}
		done []time.Duration
	)
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil && r.next.Load() < stopAt {
				cl := r.newCall()
				err := r.do(ctx, cl, r.next.Add(1)-1)
				lat := float64(r.tr.now()-cl.t0) / 1e6
				r.done.Add(1)
				if err == nil {
					cl.record(r.tr)
				} else {
					r.fails.add(err)
				}
				mu.Lock()
				t.ops++
				if err != nil {
					t.failed++
				} else {
					t.lat = append(t.lat, lat)
					done = append(done, time.Since(r.first))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	r.tr.on.Store(false)
	if traced {
		r.tracedFrom = append(r.tracedFrom, start)
		r.tracedTo = append(r.tracedTo, end)
	}
	r.after = r.counters()
	r.doneAt = append(r.doneAt, done...)
	t.elapsed = end.Sub(start)
	return t, ctx.Err()
}

func (r *svcRunner) completed() int64 { return r.done.Load() }

// svcCounters are the servers' lifetime counters; the ledger reports
// their change over the measured windows.
type svcCounters struct {
	hits, misses, evictions             int64
	affLookups, affHits                 int64
	peerFill, steals, hedges, failovers int64
}

func (r *svcRunner) counters() svcCounters {
	var c svcCounters
	for _, b := range r.backends {
		h, m := b.Cache().Stats()
		c.hits += h
		c.misses += m
		c.evictions += b.Cache().Evictions()
	}
	fm := r.gw.Metrics()
	c.affLookups, c.affHits = fm.AffinityStats()
	c.peerFill, c.steals, c.failovers = fm.PeerFillHits(), fm.Steals(), fm.Failovers()
	c.hedges, _ = fm.HedgeStats()
	return c
}

func (r *svcRunner) ledger(ctx context.Context) (map[string]float64, error) {
	m := map[string]float64{}
	spans := aggregate(r.tr.snapshot())
	req := spans["client.request"]
	m["fleet.submit_ms"] = spans["fleet.submit"].meanMS()
	m["fleet.wait_ms"] = spans["fleet.stream"].meanMS()
	m["service.submit_ms"] = spans["service.submit"].meanMS()
	m["service.stream_ms"] = spans["service.stream"].meanMS()
	m["service.cache_ms"] = spans["service.cache"].meanMS()
	m["client.http_ms"] = ratio(float64(spans["client.submit"].self+spans["client.stream"].self), float64(req.n)) / 1e6
	var backendNS int64
	for name, s := range spans {
		if strings.HasPrefix(name, "service.") && name != "service.probe" {
			backendNS += s.total
		}
	}
	gatewayNS := spans["fleet.submit"].total + spans["fleet.stream"].total
	m["fleet.overhead_ms"] = ratio(float64(gatewayNS-backendNS), float64(req.n)) / 1e6

	var queueMS, runMS []float64
	retained := 0
	for _, b := range r.backends {
		views := b.List()
		retained += len(views)
		for _, v := range views {
			if v.Started != nil && v.Finished != nil && r.traced(v.Created) {
				queueMS = append(queueMS, float64(v.Started.Sub(v.Created))/1e6)
				runMS = append(runMS, float64(v.Finished.Sub(*v.Started))/1e6)
			}
		}
	}
	m["service.queue_ms"] = mean(queueMS)
	m["service.run_ms"] = mean(runMS)
	m["service.jobs_retained"] = float64(retained)
	m["fleet.jobs_retained"] = float64(len(r.gw.List()))

	d := func(f func(svcCounters) int64) float64 { return float64(f(r.after) - f(r.before)) }
	hits, misses := d(func(c svcCounters) int64 { return c.hits }), d(func(c svcCounters) int64 { return c.misses })
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["service.cache_evictions"] = d(func(c svcCounters) int64 { return c.evictions })
	m["fleet.affinity_hit_ratio"] = ratio(d(func(c svcCounters) int64 { return c.affHits }), d(func(c svcCounters) int64 { return c.affLookups }))
	m["fleet.peer_fill_hits"] = d(func(c svcCounters) int64 { return c.peerFill })
	m["fleet.steals"] = d(func(c svcCounters) int64 { return c.steals })
	m["fleet.hedges_fired"] = d(func(c svcCounters) int64 { return c.hedges })
	m["fleet.failovers"] = d(func(c svcCounters) int64 { return c.failovers })
	m["client.rate_decay"] = rateDecay(r.doneAt)

	replay, err := r.replay(ctx, m)
	if err != nil {
		return nil, err
	}
	model, err := modelPass(ctx, r.tr, replay)
	if err != nil {
		return nil, err
	}
	for k, v := range model {
		m[k] = v
	}
	return m, nil
}

func (r *svcRunner) traced(t time.Time) bool {
	for i := range r.tracedFrom {
		if !t.Before(r.tracedFrom[i]) && t.Before(r.tracedTo[i]) {
			return true
		}
	}
	return false
}

// rateDecay is the completion rate of the last third of the run over
// that of the first third.
func rateDecay(done []time.Duration) float64 {
	var end time.Duration
	for _, d := range done {
		end = max(end, d)
	}
	third := end / 3
	var first, last float64
	for _, d := range done {
		switch {
		case d < third:
			first++
		case d >= end-third:
			last++
		}
	}
	return ratio(last, first)
}

// replay times the layers directly, away from the load: simulation and
// checking of the workload's pinned units, plus for programs their parse
// and both compiles (cells-cached parse and compile were timed in setup).
func (r *svcRunner) replay(ctx context.Context, m map[string]float64) ([]*unit, error) {
	units := r.units
	if r.pool != nil {
		var err error
		if units, err = programUnits(ctx, r.tr, replaySample, m); err != nil {
			return nil, err
		}
	} else {
		spans := aggregate(r.tr.snapshot())
		m["sexpr.parse_us"] = spans["sexpr.parse"].meanUS()
		m["compiler.compile_ms"] = spans["compiler.compile"].meanMS()
	}
	var st simTiming
	allocs := heapAllocs()
	for _, u := range units {
		o, err := simulate(ctx, r.tr, u)
		if err != nil {
			return nil, err
		}
		st.add(u, &o)
	}
	st.allocs = heapAllocs() - allocs
	st.metrics(m)
	return units, nil
}

func (r *svcRunner) failures() *failLog { return r.fails }

// close drains the gateway and the backends, then closes their listeners
// and connections, and waits for every server goroutine. The HTTP servers
// are closed rather than shut down: with no job left, the only open
// connections are idle or dialed-but-unused ones, and Shutdown waits five
// seconds for the latter.
func (r *svcRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if r.gw != nil {
		errs = append(errs, r.gw.Shutdown(ctx))
	}
	for _, b := range r.backends {
		errs = append(errs, b.Shutdown(ctx))
	}
	for _, s := range r.servers {
		errs = append(errs, s.Close())
	}
	r.serveWG.Wait()
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
