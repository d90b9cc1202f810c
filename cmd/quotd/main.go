// Command quotd is the long-running derivation service: an HTTP/JSON
// daemon around the quotient engine with a content-addressed converter
// cache, a bounded derivation pool, singleflight deduplication of
// identical in-flight requests, and graceful drain on SIGTERM.
//
// Usage:
//
//	quotd [-addr host:port] [flags]
//
// Endpoints:
//
//	POST /v1/derive           derive a converter (inline .spec DSL or uploaded refs)
//	POST /v1/specs            upload named specifications for later reference
//	GET  /v1/specs            list uploaded specifications
//	GET  /v1/specs/N          fetch one uploaded specification as .spec text
//	GET  /v1/stats            counters, cache state, latency quantiles, cluster counters
//	POST /v1/peer/artifact    shard-internal: answer a peer's cache miss (fill)
//	GET  /v1/peer/artifact/K  shard-internal: fetch one cached artifact by key
//	GET  /v1/peer/keys        shard-internal: list cached keys (warm-start preload)
//	GET  /healthz             liveness (always 200 while the process runs)
//	GET  /readyz              readiness (503 once draining begins)
//	GET  /debug/vars          expvar, including the "quotd" stats map
//
// Flags:
//
//	-addr host:port     listen address (default 127.0.0.1:8086)
//	-pool n             concurrent derivations (default GOMAXPROCS)
//	-queue n            waiting requests beyond the pool before 503 (default 64)
//	-cache n            in-memory cache entries (default 1024)
//	-cache-dir dir      persist converter artifacts here (off by default)
//	-timeout d          default per-request derivation deadline (default 30s)
//	-max-timeout d      upper bound on requested deadlines (default 5m)
//	-max-states n       hard cap on safety-phase states per derivation
//	-drain d            how long SIGTERM waits for in-flight work (default 30s)
//	-preload glob       register .spec files matching the glob at startup
//	-quiet              suppress per-request logging
//
// Cluster flags (sharding; see DESIGN.md "Sharded cluster"):
//
//	-peers a,b,c        other nodes' addresses; enables cluster mode
//	-advertise addr     address peers reach this node at (default: the bound
//	                    listen address — required when listening on :0 behind
//	                    a different routable address)
//	-probe-interval d   peer health-probe period (default 500ms)
//	-hot-rps n          per-key local request rate that triggers hot-key
//	                    replication (0 = default 8; negative disables)
//	-preload-peer addr  copy a peer's in-memory artifacts before serving
//	                    (warm start for a fresh or rejoining shard)
//
// Every node is symmetric: each owns a slice of the derivation keyspace on
// a consistent-hash ring, answers its own slice from cache or engine, and
// fills misses on foreign-owned keys from the owning shard, so any node can
// be queried for anything. A dead peer is routed around after one failed
// probe (or one failed fill) and re-joins the ring when probes succeed.
//
// On SIGTERM (or SIGINT), quotd stops accepting connections, flips /readyz
// to 503, waits up to -drain for in-flight requests — derivations included
// — to finish, then cancels whatever is left via engine cancellation and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"strings"

	"protoquot/internal/cluster"
	"protoquot/internal/dsl"
	"protoquot/internal/server"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run implements the daemon; factored out of main (with an injected signal
// channel) for testing.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("quotd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8086", "listen address")
		pool         = fs.Int("pool", 0, "concurrent derivations (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "waiting requests beyond the pool before load-shedding")
		cacheEntries = fs.Int("cache", 1024, "in-memory converter cache entries")
		cacheDir     = fs.String("cache-dir", "", "persist converter artifacts to this directory")
		timeout      = fs.Duration("timeout", 30*time.Second, "default per-request derivation deadline")
		maxTimeout   = fs.Duration("max-timeout", 5*time.Minute, "upper bound on requested deadlines")
		maxStates    = fs.Int("max-states", 0, "hard cap on safety-phase states per derivation (0 = unlimited)")
		drain        = fs.Duration("drain", 30*time.Second, "SIGTERM drain budget for in-flight requests")
		preload      = fs.String("preload", "", "register .spec files matching this glob at startup")
		quiet        = fs.Bool("quiet", false, "suppress per-request logging")

		peers         = fs.String("peers", "", "comma-separated peer addresses; enables cluster mode")
		advertise     = fs.String("advertise", "", "address peers reach this node at (default: bound listen address)")
		probeInterval = fs.Duration("probe-interval", 500*time.Millisecond, "peer health-probe period")
		hotRPS        = fs.Int("hot-rps", 0, "per-key request rate triggering hot-key replication (0 = default, <0 disables)")
		preloadPeer   = fs.String("preload-peer", "", "copy a peer's in-memory artifacts before serving (warm start)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	logger := log.New(stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := server.New(server.Config{
		PoolWorkers:    *pool,
		MaxQueue:       *queue,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxStatesCap:   *maxStates,
		Logf:           logf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "quotd: %v\n", err)
		return 1
	}
	srv.PublishExpvar()

	if *preload != "" {
		n, err := preloadSpecs(srv, *preload)
		if err != nil {
			fmt.Fprintf(stderr, "quotd: preload: %v\n", err)
			return 1
		}
		logger.Printf("quotd: preloaded %d spec(s) from %s", n, *preload)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "quotd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The startup line is a contract: tests and tooling scrape the actual
	// address from it (useful with -addr 127.0.0.1:0).
	logger.Printf("quotd: listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *preloadPeer != "" {
		// Warm-start before joining the ring: a rejoining shard that serves
		// its keyspace cold would stampede the engine it just came back for.
		n, err := srv.PreloadFromPeer(context.Background(), *preloadPeer)
		if err != nil {
			logger.Printf("quotd: warm start from %s failed (serving cold): %v", *preloadPeer, err)
		} else {
			logger.Printf("quotd: warm-started %d artifact(s) from %s", n, *preloadPeer)
		}
	}
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		srv.StartCluster(cluster.Config{
			Self:          self,
			Peers:         splitPeers(*peers),
			ProbeInterval: *probeInterval,
			HotKeyRPS:     *hotRPS,
			Logf:          logf,
		})
		defer srv.StopCluster()
	}

	select {
	case sig := <-sigs:
		logger.Printf("quotd: %v: draining for up to %v", sig, *drain)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := httpSrv.Shutdown(ctx) // stop the listener, wait for in-flight
		cancel()
		if err != nil {
			// Drain budget exhausted: abort the remaining derivations via
			// engine cancellation and close whatever connections are left.
			logger.Printf("quotd: drain incomplete (%v); aborting in-flight derivations", err)
			srv.Abort()
			httpSrv.Close()
			return 1
		}
		srv.Abort() // nothing left in flight; release the base context
		logger.Printf("quotd: drained cleanly")
		return 0
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return 0
		}
		fmt.Fprintf(stderr, "quotd: %v\n", err)
		return 1
	}
}

// splitPeers parses the -peers list, tolerating spaces and empty slots.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// preloadSpecs registers every spec in every file matching the glob.
func preloadSpecs(srv *server.Server, glob string) (int, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no files match %q", glob)
	}
	n := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return n, err
		}
		specs, perr := dsl.Parse(f)
		f.Close()
		if perr != nil {
			return n, fmt.Errorf("%s: %w", p, perr)
		}
		for _, sp := range specs {
			srv.RegisterSpec(sp)
			n++
		}
	}
	return n, nil
}
