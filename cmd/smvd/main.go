// Command smvd is the persistent model-checking server: it keeps
// compiled models, their variable orders and their reachable/fair state
// sets in memory between queries (sessions keyed by a content hash of
// source + engine config) and on disk between restarts (serialize v3
// warm-start records), so re-checking specs against an unchanged model
// skips parsing, compilation, reordering, reachability and the fair-set
// fixpoint.
//
// Usage:
//
//	smvd [-addr :8611] [-cache-dir DIR] [-max-sessions N]
//	     [-node-budget N] [-default-deadline D] [-max-deadline D]
//
// Endpoints:
//
//	POST /check    {"model": "...", "specs": ["AG p"], "ltl": ["G F q"],
//	                "config": {"disjunctive": true}, "deadline_ms": 5000}
//	GET  /statsz   cache hit/miss counters + per-session RelStats
//	GET  /healthz  liveness probe
//	     /debug/pprof/  live profiling
//
// A /check body over smvd.MaxRequestBytes (1 MiB) is refused with 413,
// and a client gets readHeaderTimeout to send its request headers.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight queries
// finish and every session's warm-start record is flushed to the cache
// directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/smvd"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or slow clients cannot hold connections open.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8611", "listen address")
	cacheDir := flag.String("cache-dir", "", "directory for on-disk warm-start records (empty: memory only)")
	maxSessions := flag.Int("max-sessions", 64, "maximum cached sessions (LRU beyond this)")
	nodeBudget := flag.Int("node-budget", 0, "evict a session whose manager exceeds this many live nodes (0: unbounded)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline applied to requests that set none (0: none)")
	maxDeadline := flag.Duration("max-deadline", 0, "hard cap on any request deadline (0: none)")
	flag.Parse()

	if err := run(*addr, *cacheDir, *maxSessions, *nodeBudget, *defaultDeadline, *maxDeadline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, maxSessions, nodeBudget int, defaultDeadline, maxDeadline time.Duration) error {
	cache, err := smvd.NewCache(maxSessions, nodeBudget, cacheDir)
	if err != nil {
		return err
	}
	server := smvd.NewServer(cache)
	server.DefaultDeadline = defaultDeadline
	server.MaxDeadline = maxDeadline

	hs := &http.Server{Addr: addr, Handler: server.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("smvd listening on %s (max sessions %d, cache dir %q)\n", addr, maxSessions, cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("smvd: shutting down, flushing warm-start records...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := cache.FlushAll(); err != nil {
		return fmt.Errorf("smvd: flush failed: %w", err)
	}
	fmt.Println("smvd: bye")
	return nil
}
