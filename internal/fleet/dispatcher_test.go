package fleet

import (
	"context"
	"fmt"
	"testing"

	"pcoup/internal/tenant"
)

// tryNext is the non-blocking test shim around the worker pop path.
func (d *dispatcher) tryNext(url string) *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.popLocked(url)
}

func testTenant(t *testing.T, s tenant.Spec) *tenant.Tenant {
	t.Helper()
	ten, err := tenant.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

func mkTasks(ten *tenant.Tenant, owner string, n int) []*task {
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{
			ctx:   context.Background(),
			ten:   ten,
			key:   fmt.Sprintf("%s-%d", ten.Name(), i),
			index: i,
			owner: owner,
			resCh: make(chan taskResult, 1),
		}
		ten.Admit(1) // mirror the gateway's queued accounting
	}
	return tasks
}

func TestDRRWeightRatios(t *testing.T) {
	heavy := testTenant(t, tenant.Spec{Name: "heavy", Weight: 3})
	light := testTenant(t, tenant.Spec{Name: "light", Weight: 1})
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	d.enqueue(mkTasks(heavy, "b", 400))
	d.enqueue(mkTasks(light, "b", 400))

	counts := map[string]int{}
	const pops = 200
	for i := 0; i < pops; i++ {
		task := d.tryNext("b")
		if task == nil {
			t.Fatalf("pop %d returned nil with work queued", i)
		}
		counts[task.ten.Name()]++
		d.complete(task)
	}
	// 3:1 weights over 200 pops: heavy should take ~150 ± 10%.
	if counts["heavy"] < 135 || counts["heavy"] > 165 {
		t.Fatalf("heavy got %d of %d pops, want 150 +/- 10%%", counts["heavy"], pops)
	}
	if counts["light"] == 0 {
		t.Fatal("light tenant starved")
	}
}

func TestStarvationFreedom(t *testing.T) {
	flood := testTenant(t, tenant.Spec{Name: "flood", Weight: 100})
	small := testTenant(t, tenant.Spec{Name: "small", Weight: 1})
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	d.enqueue(mkTasks(flood, "b", 1000))
	d.enqueue(mkTasks(small, "b", 5))

	// One full DRR round serves at most weight_i from each tenant: the
	// weight-1 tenant must appear within the first 100+1 pops.
	firstSmall := -1
	for i := 0; i < 202; i++ {
		task := d.tryNext("b")
		if task == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if task.ten.Name() == "small" {
			firstSmall = i
			break
		}
		d.complete(task)
	}
	if firstSmall < 0 {
		t.Fatal("weight-1 tenant starved under weight-100 flood")
	}
	if firstSmall > 101 {
		t.Fatalf("weight-1 tenant first served at pop %d, want <= 101", firstSmall)
	}
}

func TestClassPriorityPreempts(t *testing.T) {
	batch := testTenant(t, tenant.Spec{Name: "bt", Class: tenant.Batch, Weight: 100})
	inter := testTenant(t, tenant.Spec{Name: "it", Weight: 1})
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	d.enqueue(mkTasks(batch, "b", 50))

	// Batch drains until interactive work arrives...
	got := d.tryNext("b")
	if got == nil || got.ten.Name() != "bt" {
		t.Fatalf("expected batch task, got %+v", got)
	}
	d.complete(got)

	// ...which then jumps the entire batch backlog.
	d.enqueue(mkTasks(inter, "b", 3))
	for i := 0; i < 3; i++ {
		got := d.tryNext("b")
		if got == nil || got.ten.Name() != "it" {
			t.Fatalf("pop %d: expected interactive task, got %+v", i, got)
		}
		d.complete(got)
	}
	if got := d.tryNext("b"); got == nil || got.ten.Name() != "bt" {
		t.Fatalf("expected batch resume, got %+v", got)
	}
}

func TestStealTakesTailChunk(t *testing.T) {
	ten := testTenant(t, tenant.Spec{Name: "a"})
	m := NewMetrics()
	d := newDispatcher([]string{"A", "B"}, 0, m)
	d.enqueue(mkTasks(ten, "A", 20))

	// B is idle: its pop steals a chunk (min(8, 20/2) = 8) from A's tail.
	got := d.tryNext("B")
	if got == nil {
		t.Fatal("idle backend did not steal")
	}
	if m.Steals() != 8 {
		t.Fatalf("steals_total = %d, want 8", m.Steals())
	}
	if got.index < 12 {
		t.Fatalf("stolen task has index %d — steal took from the head, not the tail", got.index)
	}
	depths := d.depths()
	if depths["A"] != 12 || depths["B"] != 7 {
		t.Fatalf("depths after steal = %v, want A:12 B:7", depths)
	}

	// A's own worker still gets the head task: locality preserved.
	own := d.tryNext("A")
	if own == nil || own.index != 0 {
		t.Fatalf("victim head task = %+v, want index 0", own)
	}
}

func TestStealSkipsSingletonQueue(t *testing.T) {
	ten := testTenant(t, tenant.Spec{Name: "a"})
	d := newDispatcher([]string{"A", "B"}, 0, NewMetrics())
	d.enqueue(mkTasks(ten, "A", 1))
	if got := d.tryNext("B"); got != nil {
		t.Fatalf("stole the victim's only task: %+v", got)
	}
	if got := d.tryNext("A"); got == nil || got.index != 0 {
		t.Fatalf("owner lost its task: %+v", got)
	}
}

func TestInflightQuotaGatesPop(t *testing.T) {
	capped := testTenant(t, tenant.Spec{Name: "capped", MaxInflightCells: 1})
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	d.enqueue(mkTasks(capped, "b", 3))

	first := d.tryNext("b")
	if first == nil {
		t.Fatal("first pop blocked")
	}
	if got := d.tryNext("b"); got != nil {
		t.Fatalf("pop succeeded past the inflight cap: %+v", got)
	}
	d.complete(first)
	if got := d.tryNext("b"); got == nil {
		t.Fatal("pop still blocked after completion freed the slot")
	}
}

func TestQuotaBlockedTenantDoesNotBlockOthers(t *testing.T) {
	capped := testTenant(t, tenant.Spec{Name: "capped", MaxInflightCells: 1})
	free := testTenant(t, tenant.Spec{Name: "free"})
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	d.enqueue(mkTasks(capped, "b", 5))
	d.enqueue(mkTasks(free, "b", 5))

	// Without completing anything, the capped tenant can contribute at
	// most 1 in-flight cell; the free tenant all 5.
	var got []*task
	cappedCount := 0
	for {
		task := d.tryNext("b")
		if task == nil {
			break
		}
		got = append(got, task)
		if task.ten.Name() == "capped" {
			cappedCount++
		}
	}
	if len(got) != 6 || cappedCount != 1 {
		t.Fatalf("popped %d tasks (%d capped), want 6 with exactly 1 capped", len(got), cappedCount)
	}

	// Releasing the capped slot unblocks its next queued cell.
	for _, task := range got {
		if task.ten.Name() == "capped" {
			d.complete(task)
		}
	}
	next := d.tryNext("b")
	if next == nil || next.ten.Name() != "capped" {
		t.Fatalf("after release: %+v, want capped task", next)
	}
}

// TestSingleTenantKeepsOrder: with one tenant there is one queue per
// class, so DRR serves cells in enqueue order, across jobs.
func TestSingleTenantKeepsOrder(t *testing.T) {
	ten := testTenant(t, tenant.Spec{Name: "a"})
	d := newDispatcher([]string{"x"}, 0, NewMetrics())
	want := append(mkTasks(ten, "x", 3), mkTasks(ten, "x", 3)...)
	d.enqueue(want[:3])
	d.enqueue(want[3:])

	for i, w := range want {
		got := d.tryNext("x")
		if got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
		d.complete(got)
	}
}

func TestCloseWakesWorkers(t *testing.T) {
	d := newDispatcher([]string{"b"}, 0, NewMetrics())
	done := make(chan *task, 1)
	go func() { done <- d.next("b") }()
	d.close()
	if got := <-done; got != nil {
		t.Fatalf("next after close = %+v, want nil", got)
	}
}
