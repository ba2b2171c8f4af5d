// Command lpdag-serve runs the concurrent analysis engine as an HTTP
// service: the response-time analysis of Serrano et al. (DATE 2016),
// at most -workers jobs at once, each on its request's goroutine, with
// a shared content-addressed cache, so repeated and concurrent requests
// for structurally identical task graphs compute the expensive blocking
// terms once.
//
// Usage:
//
//	lpdag-serve -addr :8080 -workers 8
//
// Endpoints:
//
//	POST /v1/analyze   batch response-time analysis
//	POST /v1/simulate  discrete-event scheduler simulation
//	POST /v1/generate  random task-set generation
//	POST /v1/campaign  sweep campaign, streamed as JSON lines
//	GET  /healthz      liveness probe ("ok", or "draining" + 503 once
//	                   SIGTERM drain begins) with worker load and live
//	                   session count
//	GET  /stats        engine + cache + worker counters
//	GET  /metrics      Prometheus text exposition: engine slots, cache,
//	                   sessions, campaigns, HTTP, analysis traces
//
// Every API route sits behind one admission (-max-inflight, -max-body;
// /healthz, /stats and /metrics stay outside it) and answers with one
// decoder and error writer. What a body may ask for is bounded by one
// table, internal/limits, with no flag: cores ≤ 64, 1024 task sets per
// analyze batch or generate count, 4096 tasks per set, 1024 nodes and
// 8192 edges per task, and the simulate, generate, campaign and repair
// bounds. A value past its bound is a 400 naming it, e.g. "invalid
// cores: 65 (must be in [1, 64])", before any job starts. Results and
// errors are JSON (ndjson on /v1/campaign), whatever the Accept header
// asks for. The ndjson lines are flushed once per tick, every 2s, not
// per line. The one binary body is the snapshot stream a draining peer
// posts to /v1/sessions/handoff.
//
// Stateful what-if / admission-control sessions (each holds a task set
// server-side and re-analyzes it from scratch per query, with µ tables
// memoized on its graphs; see DESIGN.md, "Sessions"):
//
//	POST   /v1/sessions                   create (taskset + options) → id
//	GET    /v1/sessions/{id}/report       current report
//	POST   /v1/sessions/{id}/edits        apply an edit batch → report
//	POST   /v1/sessions/{id}/admit        admission probe, no commit
//	POST   /v1/sessions/{id}/sensitivity  per-task WCET headroom
//	POST   /v1/sessions/{id}/repair       placement search to fix an
//	                                      unschedulable set (apply: commit)
//	DELETE /v1/sessions/{id}              drop the session
//	POST   /v1/sessions/handoff           peer drain hand-off (binary
//	                                      snapshot frames, epoch-checked)
//
// Sessions become durable with -session-dir: every committed edit batch
// is snapshotted and fsynced to an append-only log before the response
// goes out, startup restores the unexpired sessions (TTL eviction
// tombstones the durable entry, so a restart never resurrects an
// expired id), and recovery tolerates a torn tail from a crash
// mid-append. With -self-url and -peers a static group of servers forms
// a consistent-hash ring over session ids: requests for sessions owned
// elsewhere answer 307 with the owner in X-Lpdag-Session-Owner, every
// session response (a create, and every operation run on the session,
// failed or not) carries the edit epoch in X-Lpdag-Session-Epoch (so
// clients can tell whether an edit whose connection died actually
// committed), and the SIGTERM drain hands each live session to its next
// ring owner before the listener closes. See DESIGN.md, "Durable
// sessions".
//
// Example:
//
//	curl -s localhost:8080/v1/analyze -d '{
//	  "cores": 4,
//	  "requests": [{"taskset": {"tasks": [
//	    {"name": "t1", "wcet": [2, 4, 3, 1],
//	     "edges": [[0,1],[0,2],[1,3],[2,3]],
//	     "deadline": 20, "period": 20}
//	  ]}}]
//	}'
//
// Every request emits one structured log line on stderr (method, route,
// status, latency, bytes; -log-format json|text, slower-than
// -slow-request logs at Warn).
//
// Profiling is opt-in: -pprof-addr localhost:6060 serves net/http/pprof
// on a separate listener (keep it on loopback or behind a firewall; it
// is never mounted on the service address).
//
// The server drains in-flight requests and stops the engine on SIGINT /
// SIGTERM. Exit status: 0 on clean shutdown, 2 on usage or bind errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpdag-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", 0, "jobs that run at once (0 = GOMAXPROCS)")
		cacheSize = fs.Int("cache", 0, "µ-table cache entries, 0 = default, negative = disable")
		maxBody   = fs.Int64("max-body", engine.DefaultMaxBodyBytes, "request body limit in bytes")
		inFlight  = fs.Int("max-inflight", engine.DefaultMaxInFlight, "concurrent HTTP requests before shedding 503s")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")

		// Stateful analysis sessions (/v1/sessions).
		maxSessions = fs.Int("max-sessions", engine.DefaultMaxSessions, "live analysis sessions before creates shed 503s")
		sessionTTL  = fs.Duration("session-ttl", engine.DefaultSessionTTL, "evict sessions untouched this long (negative = never)")
		sessionDir  = fs.String("session-dir", "", "persist sessions to this directory (fsync per committed edit batch; restored on startup); empty = in-memory only")
		selfURL     = fs.String("self-url", "", "this node's advertised base URL on the session ring (e.g. http://host:8080); required with -peers")
		peers       = fs.String("peers", "", "comma-separated base URLs of peer session nodes; enables consistent-hash session routing (307 to the owner) and drain hand-off")

		// Drain window: /healthz reports draining before the listener
		// closes, so load balancers reroute first.
		drainGrace = fs.Duration("drain-grace", 0, "after SIGTERM, keep serving this long with /healthz reporting draining so load balancers reroute before the listener closes")

		// Observability: structured request logging + /metrics exposition.
		logFormat = fs.String("log-format", "text", "request log format: text | json")
		slowReq   = fs.Duration("slow-request", engine.DefaultSlowRequest, "log requests slower than this at Warn level")

		// Profiling: net/http/pprof on a SEPARATE listener, opt-in, so the
		// profile surface is never exposed on the service address.
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	default:
		fmt.Fprintf(stderr, "lpdag-serve: unknown -log-format %q (want text or json)\n", *logFormat)
		return 2
	}

	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{
		Workers: *workers, CacheEntries: *cacheSize, Obs: reg,
	})
	defer eng.Close()

	if *pprofAddr != "" {
		// Explicit mux (not http.DefaultServeMux) so the debug listener
		// serves nothing but the profiler endpoints.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-serve: pprof: %v\n", err)
			return 2
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(stderr, "lpdag-serve: pprof on %s/debug/pprof/\n", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); err != nil && err != http.ErrServerClosed && ctx.Err() == nil {
				fmt.Fprintf(stderr, "lpdag-serve: pprof: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-serve: %v\n", err)
		return 2
	}
	// Request contexts deliberately do NOT derive from the signal
	// context: SIGTERM must stop accepting and let Shutdown drain
	// in-flight requests, not cancel them mid-analysis.
	var peerList []string
	if *peers != "" {
		if *selfURL == "" {
			fmt.Fprintln(stderr, "lpdag-serve: -peers requires -self-url (this node's own base URL)")
			return 2
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	var store *engine.SessionStore
	if *sessionDir != "" {
		var err error
		if store, err = engine.OpenSessionStore(*sessionDir); err != nil {
			fmt.Fprintf(stderr, "lpdag-serve: session store: %v\n", err)
			return 2
		}
		defer store.Close()
	}
	engSrv := engine.NewServer(eng, engine.ServerConfig{
		MaxBodyBytes: *maxBody, MaxInFlight: *inFlight,
		MaxSessions: *maxSessions, SessionTTL: *sessionTTL,
		SessionStore: store, SelfURL: *selfURL, Peers: peerList,
	})
	if store != nil {
		fmt.Fprintf(stderr, "lpdag-serve: session store %s: %d sessions restored, %d records past a limits bound skipped\n",
			*sessionDir, engSrv.Sessions().Len(), store.Skipped())
	}
	// The campaign orchestrator mounts on the engine server (it lives in
	// internal/experiments, one layer above the engine), behind the
	// admission of every engine route. The engine server also carries
	// the node's draining flag: /healthz flips to "draining" when
	// shutdown begins. The logging/metrics middleware wraps it, so
	// every request is logged and counted once, labelled by its route
	// pattern.
	experiments.Mount(engSrv)
	srv := &http.Server{
		Handler:           engine.LogRequests(engSrv, logger, reg, *slowReq),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stderr, "lpdag-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "lpdag-serve: %v\n", err)
		return 2
	case <-ctx.Done():
	}

	// Flip /healthz to "draining" FIRST: a load balancer polling this
	// node must stop routing work here the moment drain begins, not when
	// the listener finally closes. The optional grace window keeps the
	// listener open so pollers on fresh connections can observe the flip.
	engSrv.StartDraining()
	fmt.Fprintf(stderr, "lpdag-serve: shutting down (draining up to %s)\n", *drain)
	if *drainGrace > 0 {
		select {
		case err := <-errc:
			fmt.Fprintf(stderr, "lpdag-serve: %v\n", err)
			return 2
		case <-time.After(*drainGrace):
		}
	}
	// Flush every session snapshot to the durable store and hand live
	// sessions to their next ring owners BEFORE the listener closes: a
	// client mid-conversation must find its session elsewhere the moment
	// this node stops answering.
	handCtx, handCancel := context.WithTimeout(context.Background(), *drain)
	if err := engSrv.DrainSessions(handCtx, nil); err != nil {
		fmt.Fprintf(stderr, "lpdag-serve: session hand-off incomplete (store still holds them): %v\n", err)
	}
	handCancel()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// Drain budget exhausted: sever the remaining connections so
		// their request contexts cancel: jobs still waiting for a slot
		// give up without running, and running jobs stop at their next
		// cancellation check (Engine.Close waits for them).
		fmt.Fprintf(stderr, "lpdag-serve: drain budget exceeded, closing connections: %v\n", err)
		srv.Close()
	}
	stats := eng.Stats()
	fmt.Fprintf(stdout, "served %d jobs (%d analyses, %d simulations, %d generations), cache hit rate %.1f%%\n",
		stats.JobsServed(), stats.Analyses, stats.Simulations, stats.Generations,
		100*stats.Cache.HitRate())
	return 0
}
