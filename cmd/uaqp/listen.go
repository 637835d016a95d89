package main

import (
	"context"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// Timeouts of the two HTTP commands. Bodies are capped at 1 MiB
// (serve.DecodeBody), so the read side is short; the write side has to
// outlast the front's 60 s shard call so a slow shard's answer is still
// relayed rather than cut off.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 90 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownGrace bounds how long in-flight requests get to finish
	// once a shutdown starts.
	shutdownGrace = 10 * time.Second
)

// serveUntilDone serves h on ln until ctx is done or the process gets
// SIGINT or SIGTERM, then stops accepting, lets in-flight requests
// finish (shutdownGrace), runs cleanup — the caller's own teardown, e.g.
// the dispatcher's final drain — and returns nil. A listener failure or
// an overrun grace period is returned, after cleanup.
func serveUntilDone(ctx context.Context, ln net.Listener, h http.Handler, cleanup func()) error {
	ctx, stopSignals := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = srv.Shutdown(grace)
		cancel()
		<-served // http.ErrServerClosed, as soon as Shutdown begins
	}
	cleanup()
	return err
}
