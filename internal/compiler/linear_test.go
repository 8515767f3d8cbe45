package compiler

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// unrollSource is a program whose main is one basic block of n
// read-modify-write statements on the same memory word.
func unrollSource(n int) string {
	return fmt.Sprintf("(program u (global out (array int 1)) (def (main) (unroll (a 0 %d) (aset out 0 (+ (aref out 0) 1)))))", n)
}

// lowerOptimized lowers src for the baseline and optimizes every
// function, as the back half does before scheduling.
func lowerOptimized(t *testing.T, src string) *env {
	t.Helper()
	forms, err := sexpr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := lowerForms(forms, machine.Baseline(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &optimizer{}
	for _, fn := range e.fns {
		o.optimize(fn)
	}
	return e
}

// scheduleAll schedules every block of every function of e with one
// scheduler and returns it.
func scheduleAll(t *testing.T, e *env, deadline time.Time) (*scheduler, error) {
	t.Helper()
	var sc *scheduler
	for i, fn := range e.fns {
		if sc == nil {
			sc = newScheduler(e, fn, &e.segs[i])
			sc.deadline = deadline
		} else {
			sc.start(fn, &e.segs[i])
		}
		for _, b := range fn.Blocks {
			if _, err := sc.scheduleBlock(b); err != nil {
				return sc, err
			}
		}
	}
	return sc, nil
}

// TestScheduleLinearGrowth: scheduling one long block of stores to the
// same word builds a dependence graph and does ready-queue work that
// grow linearly with the block. Doubling the block at most about
// doubles the edge count and the queue's pushes and pops (counts, not
// wall time, so the test is deterministic).
func TestScheduleLinearGrowth(t *testing.T) {
	var prevEdges, prevOps int
	for _, n := range []int{1000, 2000, 4000} {
		sc, err := scheduleAll(t, lowerOptimized(t, unrollSource(n)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("N=%d: %d edges, %d ready-queue operations", n, sc.edges, sc.queueOps)
		if prevEdges > 0 {
			if r := float64(sc.edges) / float64(prevEdges); r > 2.1 {
				t.Errorf("N=%d: edges grew %.2fx on doubling (%d -> %d)", n, r, prevEdges, sc.edges)
			}
			if r := float64(sc.queueOps) / float64(prevOps); r > 2.1 {
				t.Errorf("N=%d: ready-queue operations grew %.2fx on doubling (%d -> %d)", n, r, prevOps, sc.queueOps)
			}
		}
		prevEdges, prevOps = sc.edges, sc.queueOps
	}
}

// aliasSource is a program of g one-word globals whose main forks f
// threads, each storing to its own global, and joins them. Every fork
// and its join address a hidden completion cell by constant address.
func aliasSource(g, f int) string {
	var b strings.Builder
	b.WriteString("(program a")
	for i := 0; i < g; i++ {
		fmt.Fprintf(&b, " (global g%d (array int 1))", i)
	}
	b.WriteString(" (def (main)")
	for i := 0; i < f; i++ {
		fmt.Fprintf(&b, " (fork (aset g%d 0 1))", i%g)
	}
	b.WriteString(" (join)))")
	return b.String()
}

// TestCellAliasLogGrowth: naming the owner of a constant address looks
// at O(log globals) globals. Doubling both the globals and the
// constant-address operations at most about doubles the globals looked
// at; a scan of every global would quadruple them.
func TestCellAliasLogGrowth(t *testing.T) {
	prev := 0
	for _, n := range []int{500, 1000, 2000} {
		forms, err := sexpr.Parse(aliasSource(n, n/10))
		if err != nil {
			t.Fatal(err)
		}
		e, err := lowerForms(forms, machine.Baseline(), Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d globals, %d forks: %d globals looked at", n, n/10, e.aliasProbes)
		if prev > 0 {
			if r := float64(e.aliasProbes) / float64(prev); r > 2.5 {
				t.Errorf("%d globals: globals looked at grew %.2fx on doubling (%d -> %d)", n, r, prev, e.aliasProbes)
			}
		}
		prev = e.aliasProbes
	}
}

// TestCellAliasOwner: cellAlias names the global holding each address,
// hidden cells included, and none for an address outside every global.
func TestCellAliasOwner(t *testing.T) {
	forms, err := sexpr.Parse("(program o (global a (array int 3)) (global b int) (global c (array float 5))" +
		" (def (main) (fork (aset a 0 1)) (forall (i 0 2) (aset c i 1.0)) (join)))")
	if err != nil {
		t.Fatal(err)
	}
	e, err := lowerForms(forms, machine.Baseline(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for addr := int64(0); addr < e.nextAddr+2; addr++ {
		want := ""
		for _, name := range e.globalOrder {
			if g := e.globals[name]; addr >= g.addr && addr < g.addr+g.size {
				want = name
				break
			}
		}
		if got := aliasName(e, e.cellAlias(addr)); got != want {
			t.Errorf("cellAlias(%d) = %q, want %q", addr, got, want)
		}
	}
}

// TestScheduleStopsAtDeadline: a block far longer than the deadline
// check stride stops at its first check once the deadline has passed,
// with a DeadlineError, and leaves the scheduler's per-vreg scratch
// clean for the next block.
func TestScheduleStopsAtDeadline(t *testing.T) {
	e := lowerOptimized(t, unrollSource(30_000))
	past := time.Now().Add(-time.Second)
	sc, err := scheduleAll(t, e, past)
	var de *DeadlineError
	if !errors.As(err, &de) || !de.Deadline.Equal(past) {
		t.Fatalf("err = %v, want a DeadlineError for the passed deadline", err)
	}
	// The block holds ~60,000 operations; the first check is after
	// deadlineStride placements.
	if pops := sc.queueOps / 2; pops > 2*deadlineStride {
		t.Errorf("scheduled about %d ops before stopping, want at most %d", pops, 2*deadlineStride)
	}
	for v, c := range sc.avail {
		if c != -1 {
			t.Fatalf("avail[%d] = %d after a stopped block, want -1", v, c)
		}
	}
	for v, p := range sc.producers {
		if p != nil {
			t.Fatalf("producers[v%d] still set after a stopped block", v)
		}
	}
}

// TestBuildHonorsDeadline: the back half returns a DeadlineError for a
// passed deadline and builds normally without one.
func TestBuildHonorsDeadline(t *testing.T) {
	src := unrollSource(300)
	for _, deadline := range []time.Time{time.Now().Add(-time.Second), {}} {
		forms, err := sexpr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := lowerForms(forms, machine.Baseline(), Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = e.build(deadline)
		var de *DeadlineError
		if got := errors.As(err, &de); got != !deadline.IsZero() {
			t.Errorf("deadline %v: err = %v", deadline, err)
		}
	}
}

// TestScheduleMemoryFollowsOpsNotLatency: a chain of 40 dependent loads
// under the longest memory latency a machine may declare spans about
// 42 million cycles. The scheduler's memory must follow its hundred or
// so operations, not that span.
func TestScheduleMemoryFollowsOpsNotLatency(t *testing.T) {
	cfg := machine.Baseline()
	cfg.Memory.HitLatency = machine.MaxLatency
	expr := "0"
	for i := 0; i < 40; i++ {
		expr = "(aref a (and " + expr + " 7))"
	}
	src := "(program chain (global a (array int 8)) (global out (array int 1)) (def (main) (aset out 0 " + expr + ")))"
	if strings.Count(src, "aref") != 40 {
		t.Fatal("bad chain")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prog, _, err := Compile(src, cfg, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("compiling a %d-word program allocated %d MB", len(prog.Segments[0].Instrs), got>>20)
	}
}
