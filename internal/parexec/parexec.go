// Package parexec is the shared parallel cell-execution engine: every
// sweep in the tree — the experiment drivers, pcserved sweep jobs, the
// progfuzz differential corpus, pcbench — executes its independent,
// deterministic cells through this package's bounded worker pool.
//
// The engine's contract is byte-identity with sequential execution:
//
//   - Run fans cells out by index; callers write results into an
//     index-addressed slice, so row order never depends on completion
//     order. When cells fail, the error of the lowest-index failing
//     cell is returned (the error sequential execution would have hit),
//     not whichever failure happened to finish first.
//   - Stream additionally serializes the consumption of results: emit
//     is invoked strictly in submission order from the calling
//     goroutine, so streaming consumers (NDJSON sweeps, result caches
//     with LRU order) observe exactly the sequence sequential execution
//     would have produced. A cancelled or failed stream emits a
//     contiguous prefix of that sequence and nothing else.
//
// Parallelism resolves in two layers: an explicit per-call width
// carried on the context (WithLimit — pcbench's -j flag, pcserved's
// -sweep-parallelism), else GOMAXPROCS. A shared Limiter (WithLimiter)
// additionally bounds in-flight cells across concurrent sweeps, so a
// daemon running many sweep jobs under its own worker pool keeps a
// global cap on simulation concurrency instead of multiplying the two
// pools.
package parexec

import (
	"context"
	"runtime"
	"sync"
)

type limitKey struct{}
type limiterKey struct{}

// WithLimit returns a context carrying an explicit parallelism width
// for Run/Stream calls beneath it. n <= 0 removes the override
// (GOMAXPROCS applies again).
func WithLimit(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = 0
	}
	return context.WithValue(ctx, limitKey{}, n)
}

// LimitFrom resolves the effective parallelism for a call under ctx:
// the context's explicit width if set, else GOMAXPROCS.
func LimitFrom(ctx context.Context) int {
	if v, ok := ctx.Value(limitKey{}).(int); ok && v > 0 {
		return v
	}
	return runtime.GOMAXPROCS(0)
}

// Limiter is a counting semaphore bounding in-flight cells across
// many concurrent Run/Stream calls. A nil *Limiter never blocks.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter builds a Limiter admitting up to capacity concurrent
// cells (capacity < 1 is clamped to 1).
func NewLimiter(capacity int) *Limiter {
	if capacity < 1 {
		capacity = 1
	}
	return &Limiter{sem: make(chan struct{}, capacity)}
}

// acquire takes a token, abandoning the wait if ctx is cancelled.
func (l *Limiter) acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *Limiter) release() {
	if l != nil {
		<-l.sem
	}
}

// WithLimiter returns a context whose Run/Stream calls additionally
// acquire a token from lim around every cell. The service layer shares
// one limiter across all jobs so intra-job parallelism composes fairly
// with the job worker pool.
func WithLimiter(ctx context.Context, lim *Limiter) context.Context {
	return context.WithValue(ctx, limiterKey{}, lim)
}

func limiterFrom(ctx context.Context) *Limiter {
	lim, _ := ctx.Value(limiterKey{}).(*Limiter)
	return lim
}

// Run executes fn(i) for every i in [0, n) over Stream's pool with
// nothing to emit. Cells must be independent; callers record results by
// index so output order is completion-order-free. The first failure
// stops dispatch (cells already running finish), and the lowest-index
// failure is returned — the same error sequential execution returns,
// since cells are deterministic. If no cell failed and ctx was
// cancelled, ctx.Err() is returned.
func Run(ctx context.Context, n int, fn func(i int) error) error {
	return Stream(ctx, n,
		func(_ context.Context, i int) (struct{}, error) { return struct{}{}, fn(i) },
		func(int, struct{}) error { return nil })
}

// streamResult carries one cell's outcome to the merging coordinator.
type streamResult[T any] struct {
	i   int
	v   T
	err error
}

// Stream executes run(ctx, i) for every i in [0, n) in parallel and
// delivers results to emit strictly in index order, from the calling
// goroutine. The emitted sequence is byte-identical to sequential
// execution: on the first error (a cell's, or emit's own), exactly the
// cells before the failing index have been emitted, and that error is
// returned after in-flight cells drain. Any cell's failure stops
// dispatch at once: every lower index was already dispatched, and no
// higher index can be emitted. Cancellation likewise yields a
// contiguous prefix and ctx.Err(). The pool holds LimitFrom(ctx)
// workers (never more than n); width 1 with no shared limiter runs the
// cells on the calling goroutine.
func Stream[T any](ctx context.Context, n int, run func(ctx context.Context, i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := LimitFrom(ctx)
	if workers > n {
		workers = n
	}
	lim := limiterFrom(ctx)
	if workers <= 1 && lim == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := run(ctx, i)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	var closeDone sync.Once
	stop := func() { closeDone.Do(func() { close(done) }) }
	next := make(chan int)
	results := make(chan streamResult[T], workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := lim.acquire(ctx); err != nil {
					results <- streamResult[T]{i: i, err: err}
					continue
				}
				v, err := run(ctx, i)
				lim.release()
				if err != nil {
					stop()
				}
				results <- streamResult[T]{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
	feed:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-done:
				break feed
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
		close(results)
	}()

	// Ordered merge: buffer out-of-order completions, emit the
	// contiguous prefix. The first error at the emission frontier stops
	// both dispatch and emission; later-index results drain unemitted,
	// exactly as sequential execution would never have run them.
	pending := make(map[int]streamResult[T])
	nextEmit := 0
	var streamErr error
	for r := range results {
		pending[r.i] = r
		for {
			pr, ok := pending[nextEmit]
			if !ok || streamErr != nil {
				break
			}
			delete(pending, nextEmit)
			if pr.err != nil {
				streamErr = pr.err
				stop()
				break
			}
			if err := emit(pr.i, pr.v); err != nil {
				streamErr = err
				stop()
				break
			}
			nextEmit++
		}
	}
	if streamErr != nil {
		return streamErr
	}
	return ctx.Err()
}
