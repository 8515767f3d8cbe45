package service

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Drain waits for a daemon's in-flight work, counted by wg. If ctx ends
// first it calls cancel to stop that work, still waits for it, and
// returns ctx's error. cancel has been called when Drain returns.
func Drain(ctx context.Context, wg *sync.WaitGroup, cancel context.CancelFunc) error {
	waited := make(chan struct{})
	go func() {
		wg.Wait()
		close(waited)
	}()
	defer cancel()
	select {
	case <-waited:
		return nil
	case <-ctx.Done():
		cancel()
		<-waited
		return ctx.Err()
	}
}

// Serve serves h on ln until ctx ends or the listener fails, then stops
// in two steps, each bounded by drainTimeout: shutdown drains the
// daemon's jobs while h still serves status and stream requests, then
// the HTTP server finishes its open requests, and Close cuts whatever
// is left. It returns the listener's error, if that is what stopped it.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, shutdown func(context.Context) error, drainTimeout time.Duration, logf func(format string, args ...any)) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
	case err = <-errCh:
	}
	logf("draining (up to %s)", drainTimeout)
	stopCtx := context.WithoutCancel(ctx)
	dctx, cancel := context.WithTimeout(stopCtx, drainTimeout)
	defer cancel()
	if derr := shutdown(dctx); derr != nil {
		logf("drain incomplete: %v (in-flight jobs cancelled)", derr)
	}
	hctx, cancel := context.WithTimeout(stopCtx, drainTimeout)
	defer cancel()
	if srv.Shutdown(hctx) != nil {
		srv.Close()
	}
	return err
}

// ListenAndServe is a daemon's main loop: it listens on addr and runs
// Serve until SIGINT or SIGTERM, logging under the daemon's name.
func ListenAndServe(name, addr string, h http.Handler, shutdown func(context.Context) error, drainTimeout time.Duration) error {
	logf := func(format string, args ...any) { log.Printf(name+": "+format, args...) }
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logf("listening on http://%s", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = Serve(ctx, ln, h, shutdown, drainTimeout, logf)
	logf("stopped")
	return err
}
