package parexec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllCellsByIndex(t *testing.T) {
	const n = 100
	got := make([]int, n)
	ctx := WithLimit(context.Background(), 8)
	err := Run(ctx, n, func(i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("cell %d: got %d", i, v)
		}
	}
}

func TestRunLowestIndexErrorWins(t *testing.T) {
	// Two failing cells: the higher-index one finishes first (the lower
	// one sleeps), but the returned error must be the lower-index one —
	// the error sequential execution would have reported.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := Run(WithLimit(context.Background(), 4), 8, func(i int) error {
			switch i {
			case 2:
				time.Sleep(5 * time.Millisecond)
				return errLow
			case 3:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want %v", trial, err, errLow)
		}
	}
}

func TestRunStopsDispatchAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := Run(WithLimit(context.Background(), 2), 1000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("dispatch did not stop: %d cells started", n)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- Run(WithLimit(ctx, 2), 1000, func(i int) error {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancel had no effect: %d cells ran", n)
	}
}

func TestStreamEmitsInOrder(t *testing.T) {
	const n = 64
	var emitted []int
	ctx := WithLimit(context.Background(), 8)
	err := Stream(ctx, n, func(_ context.Context, i int) (int, error) {
		// Reverse the natural completion order so the merge has to buffer.
		time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
		return i * 10, nil
	}, func(i, v int) error {
		if v != i*10 {
			return fmt.Errorf("cell %d: got %d", i, v)
		}
		emitted = append(emitted, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d cells, want %d", len(emitted), n)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emit order broken at %d: got %d", i, v)
		}
	}
}

func TestStreamErrorEmitsExactPrefix(t *testing.T) {
	boom := errors.New("boom")
	const failAt = 13
	var emitted []int
	err := Stream(WithLimit(context.Background(), 8), 64,
		func(_ context.Context, i int) (int, error) {
			if i == failAt {
				return 0, boom
			}
			return i, nil
		},
		func(i, v int) error {
			emitted = append(emitted, i)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if len(emitted) != failAt {
		t.Fatalf("emitted %d cells, want exactly %d", len(emitted), failAt)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("prefix broken at %d: got %d", i, v)
		}
	}
}

func TestStreamEmitErrorStops(t *testing.T) {
	stop := errors.New("consumer full")
	count := 0
	err := Stream(WithLimit(context.Background(), 4), 32,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 5 {
				return stop
			}
			count++
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v", err)
	}
	if count != 5 {
		t.Fatalf("emitted %d cells before consumer error, want 5", count)
	}
}

func TestStreamCancelEmitsContiguousPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var emitted []int
	errc := make(chan error, 1)
	go func() {
		errc <- Stream(WithLimit(ctx, 4), 1000,
			func(c context.Context, i int) (int, error) {
				time.Sleep(time.Millisecond)
				return i, c.Err()
			},
			func(i, v int) error {
				mu.Lock()
				emitted = append(emitted, i)
				mu.Unlock()
				return nil
			})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) >= 1000 {
		t.Fatal("cancel had no effect")
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("prefix broken at %d: got %d", i, v)
		}
	}
}

func TestLimiterBoundsAcrossStreams(t *testing.T) {
	lim := NewLimiter(2)
	var inflight, peak atomic.Int64
	cell := func(_ context.Context, i int) (int, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return i, nil
	}
	ctx := WithLimiter(WithLimit(context.Background(), 8), lim)
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Stream(ctx, 16, cell, func(int, int) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("limiter breached: peak concurrency %d > 2", p)
	}
}

func TestWithLimitResolution(t *testing.T) {
	if got := LimitFrom(WithLimit(context.Background(), 7)); got != 7 {
		t.Fatalf("context override not honored: %d", got)
	}
	if got, want := LimitFrom(WithLimit(context.Background(), 0)), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("zero override should fall back to GOMAXPROCS (%d): %d", want, got)
	}
}

func TestRunSequentialFastPathChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(WithLimit(context.Background(), 1))
	ran := 0
	err := Run(ctx, 10, func(i int) error {
		ran++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if ran != 3 {
		t.Fatalf("sequential path ran %d cells after cancel, want 3", ran)
	}
}
