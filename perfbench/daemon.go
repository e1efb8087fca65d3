package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/server"
)

// daemon is an in-process rbcastd on a loopback listener, configured as
// cmd/rbcastd's flag defaults configure it: a 1024-entry cache, GOMAXPROCS
// batch workers, 4096 retained jobs, a 1024-deep batch queue, unbounded
// in-flight runs, no job timeout, the 256-entry flight recorder, and a
// request logger (text, info level) writing to a discard sink.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon serves on 127.0.0.1:0 and returns once /healthz answers.
// A non-nil tap wraps the handler and the three runners.
func startDaemon(ctx context.Context, t *tap) (*daemon, error) {
	opts := server.Options{
		CacheSize:      1024,
		MaxJobs:        4096,
		QueueDepth:     1024,
		FlightRecorder: 256,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
	if t != nil {
		opts.Runner, opts.BatchRunner, opts.SweepRunner = t.run, t.batch, t.sweepRun
	}
	srv := server.New(opts)
	var h http.Handler = srv
	if t != nil {
		h = t.handler(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	hc := client.New(d.url, client.Options{MaxRetries: -1})
	for {
		if err := hc.Health(ctx); err == nil {
			return d, nil
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop shuts the listener down, drains batch jobs and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}
