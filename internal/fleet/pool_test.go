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

// TestNextSkipsUnhealthyAndExcluded: next walks the key's ring order
// from the owner, skipping ejected and excluded backends, and returns
// nil once none is left.
func TestNextSkipsUnhealthyAndExcluded(t *testing.T) {
	p := testPool(t, PoolOptions{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}})
	const key = "another-key"
	seq := p.ring.seq(key)

	if got := p.next(key, nil); got == nil || got.URL != seq[0] {
		t.Fatalf("next = %v, want the ring owner %s", got, seq[0])
	}

	p.markDown(p.backends[seq[0]], nil)
	if got := p.next(key, nil); got == nil || got.URL != seq[1] {
		t.Fatalf("next past the ejected owner = %v, want %s", got, seq[1])
	}

	// Exclude the failover target too; the last backend must be next.
	if got := p.next(key, map[string]bool{seq[1]: true}); got == nil || got.URL != seq[2] {
		t.Fatalf("next ignored the exclusion: %v, want %s", got, seq[2])
	}

	if got := p.next(key, map[string]bool{seq[1]: true, seq[2]: true}); got != nil {
		t.Fatalf("exhausted pool: next = %s, want nil", got.URL)
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
