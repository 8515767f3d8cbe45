package fleet

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// testPool builds a pool without starting its prober, with every
// backend marked healthy.
func testPool(t *testing.T, opts PoolOptions) *Pool {
	t.Helper()
	p, err := newPool(opts, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.all() {
		b.mu.Lock()
		b.healthy = true
		b.mu.Unlock()
	}
	return p
}

// TestPickBoundedLoadSpill: a saturated owner spills its key to the next
// ring node; an unsaturated owner keeps it.
func TestPickBoundedLoadSpill(t *testing.T) {
	p := testPool(t, PoolOptions{Backends: []string{"http://a:1", "http://b:1"}, LoadFactor: 1.25})

	const key = "some-content-key"
	owner, spilled, err := p.pick(key, nil)
	if err != nil || spilled {
		t.Fatalf("idle pick: owner=%v spilled=%v err=%v", owner, spilled, err)
	}
	if owner.URL != p.ring.owner(key) {
		t.Fatalf("idle pick chose %s, ring owner is %s", owner.URL, p.ring.owner(key))
	}

	// Saturate the owner far past any capacity the other's load allows.
	owner.mu.Lock()
	owner.inflight = 100
	owner.mu.Unlock()
	got, spilled, err := p.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled || got.URL == owner.URL {
		t.Fatalf("saturated owner not spilled: got %s, spilled=%v", got.URL, spilled)
	}

	// Both saturated: the owner absorbs the overload rather than failing.
	got.mu.Lock()
	got.inflight = 100
	got.mu.Unlock()
	final, spilled, err := p.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.URL != owner.URL || spilled {
		t.Fatalf("fully saturated pool: got %s spilled=%v, want owner %s", final.URL, spilled, owner.URL)
	}
}

// TestPickSkipsUnhealthyAndExcluded: ejected and explicitly excluded
// backends never receive work; an empty candidate set is ErrNoBackends.
func TestPickSkipsUnhealthyAndExcluded(t *testing.T) {
	p := testPool(t, PoolOptions{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}})
	const key = "another-key"
	owner := p.ring.owner(key)

	p.markDown(p.backends[owner], nil)
	got, _, err := p.pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.URL == owner {
		t.Fatalf("pick routed to ejected owner %s", owner)
	}

	// Exclude the failover target too; the last backend must be picked.
	got2, _, err := p.pick(key, map[string]bool{got.URL: true})
	if err != nil {
		t.Fatal(err)
	}
	if got2.URL == got.URL || got2.URL == owner {
		t.Fatalf("pick ignored exclusion: %s", got2.URL)
	}

	if _, _, err := p.pick(key, map[string]bool{got.URL: true, got2.URL: true}); err != ErrNoBackends {
		t.Fatalf("exhausted pool: err=%v, want ErrNoBackends", err)
	}
}

// TestReadmitBackoffSchedule pins the probe delays of a backend that
// keeps failing on each path into ejection: failed probes of an admitted
// backend, markDown after a dispatch error, and a backend whose very
// first probe fails. Ejected backends wait ProbeInterval, then double up
// to ReadmitMaxBackoff.
func TestReadmitBackoffSchedule(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // probes get connection refused
	const ms = time.Millisecond
	for _, tc := range []struct {
		name     string
		admitted bool
		markDown bool
		want     []time.Duration // after markDown (if any), then per failed probe
	}{
		{"probe failures", true, false, []time.Duration{500 * ms, 500 * ms, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second}},
		{"markDown", true, true, []time.Duration{500 * ms, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second}},
		{"never admitted", false, false, []time.Duration{500 * ms, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}},
	} {
		p, err := newPool(PoolOptions{Backends: []string{dead.URL}, ProbeInterval: 500 * ms, ReadmitMaxBackoff: 8 * time.Second, EjectAfter: 2}, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		b := p.backends[dead.URL]
		if tc.admitted { // as a passing probe leaves it
			b.healthy, b.consecFails = true, 0
		}
		for i, want := range tc.want {
			before := time.Now()
			if tc.markDown && i == 0 {
				p.markDown(b, nil)
			} else {
				p.probe(b)
			}
			after := time.Now()
			b.mu.Lock()
			next := b.nextProbe
			b.mu.Unlock()
			if next.Sub(after) > want || next.Sub(before) < want {
				t.Errorf("%s: step %d waits in [%v, %v], want %v", tc.name, i, next.Sub(after), next.Sub(before), want)
			}
		}
	}
}
