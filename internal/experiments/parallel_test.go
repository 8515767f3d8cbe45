package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pcoup/internal/parexec"
)

// TestRunParallelStopsAfterError is a regression test: a failing cell
// must stop the sweep instead of dispatching all remaining cells (an
// early compile error used to still run every simulation).
func TestRunParallelStopsAfterError(t *testing.T) {
	const n = 1000
	boom := errors.New("boom")
	var calls int64
	err := parexec.Run(context.Background(), n, func(i int) error {
		atomic.AddInt64(&calls, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cells already dispatched when the error lands may finish; nothing
	// new is fed afterwards, so the count stays within a few per worker.
	got := atomic.LoadInt64(&calls)
	if limit := int64(4 * runtime.GOMAXPROCS(0)); got > limit {
		t.Errorf("ran %d cells after a failing first cell (limit %d)", got, limit)
	}
}

// TestRunParallelCompletes checks the happy path visits every index once.
func TestRunParallelCompletes(t *testing.T) {
	const n = 100
	var calls int64
	if err := parexec.Run(context.Background(), n, func(i int) error {
		atomic.AddInt64(&calls, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != n {
		t.Errorf("calls = %d, want %d", got, n)
	}
}
