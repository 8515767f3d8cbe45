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
// return 429 + Retry-After. Like pcserved, the gateway keeps every
// unfinished job and the 1024 most recently finished ones.
// See docs/ARCHITECTURE.md (fleet layer).
//
// Usage:
//
//	pcfleet -addr :8090 -backends http://127.0.0.1:8091,http://127.0.0.1:8092 \
//	        -tenants configs/tenants/example.json
//
// SIGINT/SIGTERM trigger a graceful shutdown: new submissions are
// refused, in-flight jobs drain (bounded by -drain-timeout), and open
// HTTP requests get -drain-timeout more before they are cut.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"pcoup/internal/fleet"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	backends := flag.String("backends", "", "comma-separated pcserved base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "health probe cadence per backend")
	ejectAfter := flag.Int("eject-after", 2, "consecutive probe failures before a backend is ejected")
	tenantsFile := flag.String("tenants", "", "tenant config file (JSON array of specs); empty: open access, no auth")
	backendConcurrency := flag.Int("backend-concurrency", 0, "dispatch workers per backend (0: 8)")
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
			ProbeInterval: *probeInterval,
			EjectAfter:    *ejectAfter,
		},
		Tenants:            tenants,
		BackendConcurrency: *backendConcurrency,
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

	log.Printf("pcfleet: fronting %d backends", len(urls))
	if err := service.ListenAndServe("pcfleet", *addr, gw.Handler(), gw.Shutdown, *drainTimeout); err != nil {
		log.Fatalf("pcfleet: %v", err)
	}
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
