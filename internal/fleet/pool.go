package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pcoup/internal/service"
)

// ErrNoBackends: every backend is ejected (or the pool is empty).
var ErrNoBackends = errors.New("fleet: no healthy backends")

// Backend is one pcserved process behind the gateway.
type Backend struct {
	// URL is the backend's base URL (also its ring member name).
	URL string

	mu          sync.Mutex
	healthy     bool
	consecFails int
	nextProbe   time.Time
	lastErr     string
	inflight    int            // gateway dispatches in flight to this backend
	load        service.Health // last load report from /readyz
}

// Healthy reports whether the backend is currently admitted.
func (b *Backend) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

func (b *Backend) acquire() {
	b.mu.Lock()
	b.inflight++
	b.mu.Unlock()
}

func (b *Backend) release() {
	b.mu.Lock()
	b.inflight--
	b.mu.Unlock()
}

// PoolOptions configures the backend pool.
type PoolOptions struct {
	// Backends are the pcserved base URLs fronted by the gateway.
	Backends []string
	// ProbeInterval is the /readyz cadence for healthy backends
	// (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// EjectAfter ejects a backend after this many consecutive probe
	// failures (default 2). Dispatch errors eject immediately.
	EjectAfter int
	// ReadmitMaxBackoff caps the probe backoff for an ejected backend:
	// re-admission probes start at ProbeInterval and double up to this
	// (default 8s), so a flapping backend is not hammered.
	ReadmitMaxBackoff time.Duration
}

func (o *PoolOptions) defaults() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 2
	}
	if o.ReadmitMaxBackoff <= 0 {
		o.ReadmitMaxBackoff = 8 * time.Second
	}
}

// Pool is the health-checked backend set plus the routing ring. The ring
// holds every configured backend permanently; health filters at
// selection time, so when an ejected backend is re-admitted its keys
// route home again and find its cache still hot.
type Pool struct {
	opts    PoolOptions
	client  *http.Client
	metrics *Metrics

	mu       sync.Mutex
	ring     *ring
	backends map[string]*Backend

	stop chan struct{}
	done chan struct{}
}

func newPool(opts PoolOptions, m *Metrics) (*Pool, error) {
	opts.defaults()
	if len(opts.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	p := &Pool{
		opts:     opts,
		client:   &http.Client{Timeout: opts.ProbeTimeout},
		metrics:  m,
		ring:     newRing(),
		backends: map[string]*Backend{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, url := range opts.Backends {
		if _, ok := p.backends[url]; ok {
			return nil, fmt.Errorf("fleet: duplicate backend %s", url)
		}
		// Not admitted until a probe passes: a failing first probe
		// starts the re-admission backoff, as an ejection does.
		p.backends[url] = &Backend{URL: url, consecFails: opts.EjectAfter - 1}
		p.ring.add(url)
	}
	return p, nil
}

// start probes every backend once synchronously (so the gateway can
// route immediately) and launches the periodic prober.
func (p *Pool) start() {
	p.probeAll(time.Now())
	go p.loop()
}

func (p *Pool) close() {
	close(p.stop)
	<-p.done
}

func (p *Pool) loop() {
	defer close(p.done)
	t := time.NewTicker(p.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			p.probeAll(now)
		}
	}
}

// probeAll probes, in parallel, every backend whose next probe is due.
// Healthy backends are due every tick; ejected ones follow their
// re-admission backoff.
func (p *Pool) probeAll(now time.Time) {
	var wg sync.WaitGroup
	for _, b := range p.all() {
		b.mu.Lock()
		due := !b.nextProbe.After(now)
		b.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe hits /readyz once and applies the ejection / re-admission rules.
// The readyz body doubles as the backend's load report (queue depth,
// inflight) — one request serves both purposes.
func (p *Pool) probe(b *Backend) {
	health, err := p.fetchReadyz(b.URL)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if !b.healthy {
			p.metrics.readmissions.Inc()
		}
		b.healthy = true
		b.consecFails = 0
		b.lastErr = ""
		b.load = *health
		b.nextProbe = time.Now().Add(p.opts.ProbeInterval)
		return
	}
	b.consecFails++
	b.lastErr = err.Error()
	p.metrics.probeFailures.Inc()
	if b.healthy && b.consecFails >= p.opts.EjectAfter {
		b.healthy = false
		p.metrics.ejections.Inc()
	}
	b.nextProbe = time.Now().Add(p.probeWait(b))
}

// probeWait is the delay before b's next probe. An admitted backend is
// probed every ProbeInterval. An ejected one backs off, doubling from
// ProbeInterval up to ReadmitMaxBackoff per failed probe since its
// ejection, so a dead backend is not hammered while it restarts.
// Callers hold b.mu.
func (p *Pool) probeWait(b *Backend) time.Duration {
	if b.healthy {
		return p.opts.ProbeInterval
	}
	return service.Backoff(p.opts.ProbeInterval, p.opts.ReadmitMaxBackoff, b.consecFails-p.opts.EjectAfter+1)
}

func (p *Pool) fetchReadyz(base string) (*service.Health, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("readyz: %s", resp.Status)
	}
	var h service.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("readyz: %w", err)
	}
	return &h, nil
}

// markDown ejects a backend immediately after a dispatch-path failure
// (connection refused mid-job): the next cells must not wait for the
// prober to notice.
func (p *Pool) markDown(b *Backend, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.healthy {
		return
	}
	b.healthy = false
	b.consecFails = p.opts.EjectAfter
	b.nextProbe = time.Now().Add(p.probeWait(b))
	if err != nil {
		b.lastErr = err.Error()
	}
	p.metrics.ejections.Inc()
}

// all returns every backend in stable (URL-sorted) order.
func (p *Pool) all() []*Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	urls := make([]string, 0, len(p.backends))
	for u := range p.backends {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	out := make([]*Backend, len(urls))
	for i, u := range urls {
		out[i] = p.backends[u]
	}
	return out
}

// get returns the backend for a URL (nil if unknown).
func (p *Pool) get(url string) *Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends[url]
}

// seq returns every backend URL in key's ring order (owner first),
// regardless of health.
func (p *Pool) seq(key string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.seq(key)
}

// next returns the first healthy backend in key's ring order (owner
// first) that is not in exclude, or nil if there is none. It is the
// gateway's one placement rule: queue homes, failover re-picks and
// peer-fill probes all walk the ring this way.
func (p *Pool) next(key string, exclude map[string]bool) *Backend {
	for _, url := range p.seq(key) {
		if exclude[url] {
			continue
		}
		if b := p.get(url); b != nil && b.Healthy() {
			return b
		}
	}
	return nil
}

// ownerURL returns the dispatch-queue home for a key: the first healthy
// backend in ring order, else the unconditional ring owner (its queue
// drains by stealing until the owner returns).
func (p *Pool) ownerURL(key string) string {
	if b := p.next(key, nil); b != nil {
		return b.URL
	}
	if seq := p.seq(key); len(seq) > 0 {
		return seq[0]
	}
	return ""
}
