// Command rbcastd is the long-running scenario-serving daemon: an
// HTTP/JSON front-end over the rbcast library with a fingerprint-keyed
// result cache, single-flight deduplication of identical scenarios,
// asynchronous batch jobs and sweeps on the incremental sweep engine, and
// Prometheus observability.
//
//	rbcastd -addr :8080 -cache 1024 -workers 0 \
//	        -queue-depth 1024 -max-inflight 8 -job-timeout 30s
//
// The daemon bounds the damage any one request or job can do: the batch
// queue is bounded (-queue-depth; full submissions shed with 429 +
// Retry-After), concurrent execution is bounded (-max-inflight; saturated
// sync runs shed with 429 while accepted batch jobs wait), each
// execution's wall clock is bounded (-job-timeout; an over-budget run
// fails with a partial result — in batches and sweeps per execution unit,
// one shared execution or a whole crash-round fork family), and a
// panicking scenario fails its own job instead of the process.
//
// Endpoints: POST /v1/run, POST /v1/batch, POST /v1/sweep,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/trace, GET /v1/jobs/{id}/events,
// GET /healthz, GET /metrics, GET /debug/requests. Pass -addr host:0
// to bind an ephemeral port; the actual address is logged on startup
// (msg="rbcastd listening" addr=...), which is what scripts/serve_smoke.sh
// parses. Logs are structured (log/slog); -log-format selects text or
// JSON, -log-level the threshold. -ops-addr optionally serves
// net/http/pprof (plus /metrics, /healthz and /debug/requests) on a
// separate operations listener so profiling never shares a port with the
// public API.
//
// The flight recorder (-flight-recorder, default 256 timelines; 0
// disables) retains per-request span timelines — cache outcome, queue and
// slot waits, engine execution, fork structure, response encoding —
// served by GET /debug/requests and folded into the
// rbcastd_phase_seconds summaries on /metrics. -slow-request logs one
// WARN line with the per-phase breakdown for any request at or over the
// threshold. On SIGINT/SIGTERM the daemon stops accepting work, drains
// in-flight requests and queued batch jobs, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// newLogger builds the process logger from the -log-format/-log-level
// flags. Unknown values are errors: a daemon silently logging at the wrong
// level is worse than one that refuses to start.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (text, json)", format)
	}
}

// readHeaderTimeout bounds how long either listener waits for a client's
// request headers, so idle or trickling connections cannot pin goroutines.
const readHeaderTimeout = 10 * time.Second

// serveOps serves the operations listener: pprof under /debug/pprof/ plus
// the daemon's /metrics and /healthz, so an operator (or a scraper) never
// has to touch the public port.
func serveOps(addr string, srv *server.Server, logger *slog.Logger) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/debug/requests", srv)
	ops := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := ops.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("ops serve", "err", err)
		}
	}()
	logger.Info("rbcastd ops listening", "addr", ln.Addr())
	return ops, ln, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:0 binds an ephemeral port)")
		opsAddr     = flag.String("ops-addr", "", "optional operations listener serving net/http/pprof, /metrics and /healthz")
		cacheSize   = flag.Int("cache", 1024, "result-cache capacity in entries")
		workers     = flag.Int("workers", 0, "worker pool size per batch job (<=0 means GOMAXPROCS)")
		maxJobs     = flag.Int("max-jobs", 4096, "retained batch jobs before the oldest finished are dropped")
		queueDepth  = flag.Int("queue-depth", 1024, "batch jobs accepted but unfinished before submissions shed with 429")
		maxInflight = flag.Int("max-inflight", 0, "concurrently executing jobs before sync runs shed with 429 (<=0 means unbounded)")
		jobTimeout  = flag.Duration("job-timeout", 0, "wall-clock bound per execution (batch and sweep: per execution unit); over it a run fails with a partial result (0 disables)")
		flightRec   = flag.Int("flight-recorder", 256, "request timelines retained for GET /debug/requests (0 disables span tracing)")
		slowReq     = flag.Duration("slow-request", 0, "log a WARN line with the per-phase span breakdown for requests at or over this duration (0 disables)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight work")
		logFormat   = flag.String("log-format", "text", "log handler: text or json")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn or error")

		self        = flag.String("self", "", "this daemon's advertised base URL in cluster mode (must appear in -peers)")
		peers       = flag.String("peers", "", "comma-separated base URLs of every fleet member, including this one; enables cluster mode")
		peerTimeout = flag.Duration("peer-timeout", 0, "budget per sibling cache probe or health check (0 means the 2s default)")
		redirect    = flag.Bool("redirect", false, "answer non-owned runs with a 307 redirect to the owner instead of proxying")
		peerHealth  = flag.Duration("peer-health-interval", 5*time.Second, "cadence of the active sibling /healthz sweep behind rbcastd_peer_up (0 disables)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbcastd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		if err := server.ValidateCluster(*self, peerList); err != nil {
			fatal("cluster configuration", err)
		}
	} else if *self != "" {
		fatal("cluster configuration", errors.New("-self set without -peers"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	srv := server.New(server.Options{
		CacheSize:      *cacheSize,
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		QueueDepth:     *queueDepth,
		MaxInflight:    *maxInflight,
		JobTimeout:     *jobTimeout,
		FlightRecorder: *flightRec,
		SlowRequest:    *slowReq,
		Logger:         logger,
		Self:           *self,
		Peers:          peerList,
		PeerTimeout:    *peerTimeout,
		Redirect:       *redirect,
	})
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}

	logger.Info("rbcastd listening", "addr", ln.Addr())
	if srv.Clustered() {
		logger.Info("rbcastd cluster mode", "self", *self, "fleet_size", len(peerList), "redirect", *redirect)
	}
	var ops *http.Server
	if *opsAddr != "" {
		var err error
		ops, _, err = serveOps(*opsAddr, srv, logger)
		if err != nil {
			fatal("ops listen", err)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if srv.Clustered() && *peerHealth > 0 {
		go srv.PeerHealthLoop(ctx, *peerHealth)
	}
	select {
	case err := <-errc:
		fatal("serve", err)
	case <-ctx.Done():
	}
	stop()

	logger.Info("rbcastd shutting down", "drain_timeout", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if ops != nil {
		if err := ops.Shutdown(shutdownCtx); err != nil {
			logger.Warn("ops shutdown", "err", err)
		}
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		fatal("drain", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve", err)
	}
	logger.Info("rbcastd: drained, bye")
}
