// Command pcfleet is the cache-affinity sharded gateway: it fronts a
// fleet of pcserved backends behind the same HTTP job API (pcq works
// unchanged), routing each sweep cell to its content-key owner on a
// consistent-hash ring so every backend's result cache stays hot for a
// disjoint shard of the key space. Failed backends are ejected and
// their cells fail over. Dispatch is weighted deficit round-robin over
// tenants: idle backends steal queued cells from saturated ones, and
// warm peer caches are probed before computing. Without -tenants every
// submission shares one unlimited tenant, so cells run in arrival
// order. With -tenants, submitters authenticate by API key,
// interactive-class cells preempt batch backlogs, and per-tenant quotas
// return 429 + Retry-After.
// See docs/ARCHITECTURE.md (fleet layer).
//
// Usage:
//
//	pcfleet -addr :8090 -backends http://127.0.0.1:8091,http://127.0.0.1:8092 \
//	        -tenants configs/tenants/example.json
//
// SIGINT/SIGTERM trigger a graceful shutdown: new submissions are
// refused and in-flight jobs drain (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcoup/internal/fleet"
	"pcoup/internal/tenant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	backends := flag.String("backends", "", "comma-separated pcserved base URLs (required)")
	replicas := flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0: 128)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "health probe cadence per backend")
	ejectAfter := flag.Int("eject-after", 2, "consecutive probe failures before a backend is ejected")
	loadFactor := flag.Float64("load-factor", 1.25, "bounded-load factor c: spill past an owner above ceil(c*(inflight+1)/healthy)")
	tenantsFile := flag.String("tenants", "", "tenant config file (JSON array of specs); empty: open access, no auth")
	backendConcurrency := flag.Int("backend-concurrency", 0, "dispatch workers per backend (0: 8)")
	stealChunk := flag.Int("steal-chunk", 0, "max cells stolen per steal from another backend's queue tail (0: 8)")
	peerFill := flag.Bool("peer-fill", true, "probe the cache owner before computing a cell elsewhere")
	highWatermark := flag.Int("high-watermark", 0, "total queued cells past which batch submissions shed (0: 4096, negative: disabled)")
	retryBudget := flag.Int("retry-budget", 3, "attempts per cell across backends before the job fails")
	retryBackoff := flag.Duration("retry-backoff", 200*time.Millisecond, "base backoff between failover attempts of one cell (doubles per attempt)")
	presetNames := flag.String("preset-names", "", "comma-separated preset names the backends serve besides baseline")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs before cancelling them")
	flag.Parse()

	urls := splitList(*backends)
	if len(urls) == 0 {
		log.Fatalf("pcfleet: -backends is required (comma-separated pcserved URLs)")
	}

	var tenants *tenant.Registry
	if *tenantsFile != "" {
		var err error
		if tenants, err = tenant.Load(*tenantsFile); err != nil {
			log.Fatalf("pcfleet: %v", err)
		}
		log.Printf("pcfleet: loaded %d tenants from %s (auth required)", len(tenants.All()), *tenantsFile)
	}

	gw, err := fleet.New(fleet.Options{
		Pool: fleet.PoolOptions{
			Backends:      urls,
			Replicas:      *replicas,
			ProbeInterval: *probeInterval,
			EjectAfter:    *ejectAfter,
			LoadFactor:    *loadFactor,
		},
		Tenants:            tenants,
		BackendConcurrency: *backendConcurrency,
		StealChunk:         *stealChunk,
		NoPeerFill:         !*peerFill,
		HighWatermark:      *highWatermark,
		RetryBudget:        *retryBudget,
		RetryBackoff:       *retryBackoff,
		PresetNames:        splitList(*presetNames),
	})
	if err != nil {
		log.Fatalf("pcfleet: %v", err)
	}
	if err := gw.Start(); err != nil {
		log.Fatalf("pcfleet: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pcfleet: %v", err)
	}
	httpSrv := &http.Server{Handler: gw.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("pcfleet: listening on http://%s, fronting %d backends", ln.Addr(), len(urls))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("pcfleet: %s: draining (up to %s)", s, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("pcfleet: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		log.Printf("pcfleet: drain incomplete: %v (in-flight jobs cancelled)", err)
	}
	httpSrv.Shutdown(context.Background())
	log.Printf("pcfleet: stopped")
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
