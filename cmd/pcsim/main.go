// Command pcsim is the processor-coupling simulator: it executes an
// assembly program (produced by pcc) on a machine configuration and
// reports cycle count, operation counts, function unit utilization,
// per-thread statistics, and memory system counters.
//
// Usage:
//
//	pcsim [-machine config.json] [-trace] [-max N] [-dump global[:count]] prog.pca
//
// Exit codes: 0 success, 1 simulation error (including deadlock),
// 2 usage, 3 memory addressing fault (out-of-range access).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/memsys"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

func main() {
	os.Exit(run())
}

// run is the tool body. It returns the process exit code so deferred
// cleanup (trace flush, profile writers) executes on every path,
// including simulation errors.
func run() int {
	machinePath := flag.String("machine", "", "machine configuration JSON file (default: baseline)")
	trace := flag.Bool("trace", false, "print an issue/writeback trace to stderr")
	maxCycles := flag.Int64("max", 0, "abort after N cycles (0 = default limit)")
	dump := flag.String("dump", "", "after the run, dump a data segment: name or name:count")
	stats := flag.Bool("stats", false, "collect and print per-thread/per-unit stall attribution")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	interleave := flag.Int64("interleave", 0, "render the unit-to-thread interleaving for the first N cycles (the paper's Figure 1/2 view)")
	timeline := flag.Int64("timeline", 0, "render per-class utilization over time in buckets of N cycles")
	faultSpec := flag.String("faults", "", "fault injection spec, e.g. seed=7,mem-drop=0.01,mem-delay=0.02:8,unit=0.001:4,port=0.001:2 (overrides the machine config)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "snapshot full simulator state every N cycles to -checkpoint")
	ckptPath := flag.String("checkpoint", "pcsim.ckpt.json", "checkpoint file for -checkpoint-every (latest snapshot wins)")
	resume := flag.String("resume", "", "resume from a checkpoint file instead of starting at cycle 0")
	jobs := flag.Int("j", 0, "parallel execution width for any in-process sweep (0: GOMAXPROCS); a single program run is unaffected")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	parexec.SetDefault(*jobs)
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcsim [flags] prog.pca")
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcsim:", err)
			}
		}()
	}

	cfg := machine.Baseline()
	if *machinePath != "" {
		var err error
		cfg, err = machine.Load(*machinePath)
		if err != nil {
			return fail(err)
		}
	}
	if *faultSpec != "" {
		m, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return fail(err)
		}
		cfg = cfg.WithFaults(m)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := isa.ParseText(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	var opts []sim.Option
	if *trace {
		// The trace emits a handful of lines per simulated cycle; writing
		// them unbuffered to stderr dominated traced-run wall-clock. The
		// deferred flush runs on every exit path, including deadlock and
		// address-fault reports below.
		tw := bufio.NewWriterSize(os.Stderr, 1<<16)
		defer tw.Flush()
		opts = append(opts, sim.WithObserver(sim.NewTextTrace(tw)))
	}
	var rec *sim.InterleaveRecorder
	if *interleave > 0 {
		rec = sim.NewInterleaveRecorder(cfg, *interleave)
		opts = append(opts, sim.WithObserver(rec))
	}
	var tl *sim.Timeline
	if *timeline > 0 {
		tl = sim.NewTimeline(cfg, *timeline)
		opts = append(opts, sim.WithObserver(tl))
	}
	if *stats {
		opts = append(opts, sim.WithStallAttribution())
	}
	var tracer *sim.JSONTracer
	if *traceJSON != "" {
		tracer = sim.NewJSONTracer(cfg)
		opts = append(opts, sim.WithObserver(tracer))
	}
	if *ckptEvery > 0 {
		opts = append(opts, sim.WithCheckpointEvery(*ckptEvery, func(ck *sim.Checkpoint) error {
			return ck.WriteFile(*ckptPath)
		}))
	}
	s, err := sim.New(cfg, prog, opts...)
	if err != nil {
		return fail(err)
	}
	if *resume != "" {
		ck, err := sim.LoadCheckpoint(*resume)
		if err != nil {
			return fail(err)
		}
		if err := s.Restore(ck); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "pcsim: resumed from %s at cycle %d\n", *resume, ck.Cycle)
	}
	res, err := s.Run(*maxCycles)
	if err != nil {
		var ae *memsys.AddressError
		if errors.As(err, &ae) {
			fmt.Fprintln(os.Stderr, "pcsim:", err)
			return 3
		}
		var de *sim.DeadlockError
		if errors.As(err, &de) {
			fmt.Fprintln(os.Stderr, "pcsim:", err)
			for _, line := range de.Threads {
				fmt.Fprintln(os.Stderr, "pcsim:   "+line)
			}
			return 1
		}
		return fail(err)
	}

	fmt.Printf("program:  %s on %s\n", prog.Name, cfg)
	fmt.Printf("cycles:   %d\n", res.Cycles)
	fmt.Printf("ops:      %d (%.2f per cycle)\n", res.Ops, float64(res.Ops)/float64(res.Cycles))
	for k := 0; k < machine.NumUnitKinds; k++ {
		kind := machine.UnitKind(k)
		fmt.Printf("%-4s util: %.3f ops/cycle (%d ops over %d units)\n",
			kind, res.Utilization(kind), res.IssuedByKind[k], cfg.CountUnits(kind))
	}
	fmt.Printf("memory:   %d loads, %d stores, %d misses, %d parked\n",
		res.Mem.Loads, res.Mem.Stores, res.Mem.Misses, res.Mem.Parked)
	if fs := res.Faults; fs != nil {
		fmt.Printf("faults:   %d wakeups dropped (%d recovered in %d watchdog retries), %d delayed, %d unit outages, %d port outages (%d writebacks rejected)\n",
			fs.MemDropped, fs.WakeupsRecovered, fs.WakeupRetries, fs.MemDelayed,
			fs.UnitOutages, fs.PortOutages, fs.OutageRejects)
	}
	fmt.Printf("threads:  %d\n", len(res.Threads))
	for _, t := range res.Threads {
		fmt.Printf("  t%-3d %-24s spawn=%-7d halt=%-7d ops=%d\n",
			t.ID, t.Segment, t.SpawnAt, t.HaltAt, t.OpsIssued)
	}
	fmt.Printf("peak registers per cluster: %v\n", res.PeakRegsPerCluster)

	if rec != nil {
		rec.Write(os.Stdout)
	}
	if tl != nil {
		tl.Write(os.Stdout, res.Cycles)
	}
	if *stats {
		sim.WriteStallReport(os.Stdout, cfg, res)
	}
	if tracer != nil {
		out, err := os.Create(*traceJSON)
		if err != nil {
			return fail(err)
		}
		if err := tracer.Write(out); err != nil {
			out.Close()
			return fail(err)
		}
		if err := out.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "pcsim: wrote trace to %s\n", *traceJSON)
	}

	if *dump != "" {
		name, count := *dump, int64(-1)
		if i := strings.IndexByte(*dump, ':'); i >= 0 {
			name = (*dump)[:i]
			n, err := strconv.ParseInt((*dump)[i+1:], 10, 64)
			if err != nil {
				return fail(fmt.Errorf("bad -dump count: %v", err))
			}
			count = n
		}
		for _, d := range prog.Data {
			if d.Name != name {
				continue
			}
			n := int64(len(d.Values))
			if count >= 0 && count < n {
				n = count
			}
			fmt.Printf("%s @%d:\n", d.Name, d.Addr)
			for i := int64(0); i < n; i++ {
				v, full := s.Memory().Peek(d.Addr + i)
				state := "full"
				if !full {
					state = "empty"
				}
				fmt.Printf("  [%3d] %-22s %s\n", i, v, state)
			}
		}
	}
	return 0
}

// fail reports err and returns the generic error exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pcsim:", err)
	return 1
}
