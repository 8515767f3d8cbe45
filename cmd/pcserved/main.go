// Command pcserved is the processor-coupling simulation daemon: it
// serves the internal/experiments suite over an HTTP JSON API with a
// bounded worker pool, a content-addressed result cache, and Prometheus
// metrics. See docs/ARCHITECTURE.md (service layer) and cmd/pcq for the
// matching client.
//
// Usage:
//
//	pcserved -addr :8091 -cache-file pcserved.cache.json
//
// Memory stays bounded however many jobs run: the daemon keeps every
// unfinished job and the 1024 most recently finished ones (an older
// job's ID answers 404 like an unknown one, and its result stays in the
// cache under its content key), and the cache holds at most
// -cache-max-bytes of payload, 256 MiB by default.
//
// SIGINT/SIGTERM trigger a graceful shutdown: new submissions are
// refused, queued and running jobs drain (bounded by -drain-timeout),
// the cache is persisted, and open HTTP requests get -drain-timeout
// more before they are cut.
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"pcoup/internal/machine"
	_ "pcoup/internal/progfuzz" // registers the fuzzdiff experiment
	"pcoup/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8091", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
	sweepParallelism := flag.Int("sweep-parallelism", 0, "cells executed in parallel within a job, bounded across all jobs (0: GOMAXPROCS, 1: sequential); outputs are byte-identical at any width")
	queueCap := flag.Int("queue", 256, "job queue capacity")
	cacheFile := flag.String("cache-file", "", "persist the result cache to this file across restarts")
	cacheMaxEntries := flag.Int("cache-max-entries", 0, "evict least-recently-used cache entries beyond this count (0: unbounded)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", service.DefaultCacheMaxBytes, "evict least-recently-used cache entries beyond this many payload bytes (negative: unbounded)")
	journalFile := flag.String("journal", "", "write-ahead job journal: a daemon killed mid-job resumes interrupted jobs on restart")
	retryBudget := flag.Int("retry-budget", 3, "max re-executions of a journal-recovered job before it is failed")
	retryBackoff := flag.Duration("retry-backoff", time.Second, "base backoff before re-running a repeatedly interrupted job (doubles per interruption)")
	presetDir := flag.String("presets", "", "directory of machine config JSON files served as presets (by file stem)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline (jobs may set timeout_ms)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs before cancelling them")
	accessLog := flag.Bool("access-log", false, "log one structured line per HTTP request (method, path, tenant, status, duration, cache)")
	flag.Parse()

	presets, err := loadPresets(*presetDir)
	if err != nil {
		log.Fatalf("pcserved: %v", err)
	}

	srv := service.New(service.Options{
		Workers:          *workers,
		SweepParallelism: *sweepParallelism,
		QueueCap:         *queueCap,
		CacheFile:        *cacheFile,
		CacheMaxEntries:  *cacheMaxEntries,
		CacheMaxBytes:    *cacheMaxBytes,
		JournalFile:      *journalFile,
		RetryBudget:      *retryBudget,
		RetryBackoff:     *retryBackoff,
		DefaultTimeout:   *jobTimeout,
		Presets:          presets,
	})
	if err := srv.Start(); err != nil {
		log.Fatalf("pcserved: %v", err)
	}

	handler := srv.Handler()
	if *accessLog {
		handler = service.AccessLog(handler, log.Printf)
	}
	if err := service.ListenAndServe("pcserved", *addr, handler, srv.Shutdown, *drainTimeout); err != nil {
		log.Fatalf("pcserved: %v", err)
	}
}

// loadPresets reads every *.json machine config in dir, keyed by file
// stem (figure8.json -> preset "figure8").
func loadPresets(dir string) (map[string]*machine.Config, error) {
	if dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*machine.Config{}
	for _, p := range paths {
		cfg, err := machine.Load(p)
		if err != nil {
			return nil, fmt.Errorf("preset %s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		out[name] = cfg
	}
	return out, nil
}
