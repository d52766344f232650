// Command spind is the simulation-as-a-service daemon: an HTTP API over
// the SPIN simulator with a content-addressed result cache and
// Prometheus metrics.
//
// Endpoints:
//
//	POST /v1/simulate   one scenario (harness JSON + optional "check");
//	                    ?stream=sse streams the windowed time-series live
//	POST /v1/sweep      one figure sweep ({"fig":"7", ...})
//	GET  /v1/trace/<id> a request's span tree (?format=perfetto for a
//	                    Perfetto-loadable timeline)
//	GET  /v1/version    build identity (version, commit, Go toolchain)
//	GET  /healthz       liveness + queue snapshot
//	GET  /readyz        readiness (fails while draining)
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/pprof/  net/http/pprof profiling of the live daemon
//
// Identical requests — after canonicalization, so spelling out defaults
// does not matter — share one cache entry keyed by the SHA-256 of the
// canonical request plus the result-schema version, and concurrent
// identical requests run the simulation once. Responses carry X-Cache
// (hit | miss | shared) and X-Cache-Key headers. A client's
// X-Request-ID and traceparent are adopted: the ID is echoed and logged,
// and the request's span tree continues the client's trace.
//
// The daemon sheds load instead of collapsing: past -queue waiting jobs
// it answers 429 with Retry-After. SIGINT/SIGTERM drain gracefully —
// readiness fails first, then in-flight requests complete before the
// process exits.
//
// Usage:
//
//	spind -addr :8080 -cachedir /var/cache/spind
//	curl -s localhost:8080/healthz
//	curl -s -d '{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":20000,"seed":1}' localhost:8080/v1/simulate
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("spind: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cachedir  = flag.String("cachedir", "", "directory for the on-disk result cache (empty = in-memory only)")
		cachemem  = flag.Int("cachemem", 0, "in-memory cache entries (0 = default 1024)")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "accepted-but-waiting jobs before shedding 429s (0 = 4x workers)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request simulation budget")
		maxcycles = flag.Int64("maxcycles", 2_000_000, "largest cycles value a request may ask for")
		grace     = flag.Duration("grace", time.Minute, "shutdown grace period for in-flight requests")
		reqlog    = flag.Bool("reqlog", true, "log one structured JSON record per request (id, endpoint, code, cache outcome, key, duration, trace/span IDs)")
	)
	flag.Parse()

	store, err := cache.Open(*cachedir, *cachemem)
	if err != nil {
		log.Fatalf("opening cache: %v", err)
	}
	// Request logs are structured JSON records on stderr (one object per
	// line: request ID, trace/span IDs, ...), so they are
	// machine-queryable; daemon lifecycle lines stay on the plain logger.
	cfg := serve.Config{
		Cache:     store,
		Workers:   *workers,
		QueueSize: *queue,
		Timeout:   *timeout,
		MaxCycles: *maxcycles,
	}
	if *reqlog {
		cfg.Log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: withPprof(srv.Handler())}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (workers=%d, cachedir=%q)", *addr, srv.Workers(), *cachedir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (grace %v)", sig, *grace)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	// Drain ordering: fail readiness first (load balancers stop routing
	// here), stop accepting connections, let in-flight requests (and the
	// simulations they wait on) complete, then stop the pool.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	st := srv.Snapshot()
	log.Printf("bye: %d hits (%d disk), %d misses, %d shared, %d errors",
		st.Hits, st.DiskHits, st.Misses, st.Shared, st.Errors)
}

// withPprof serves the profiling namespace, /debug/pprof, from
// net/http/pprof for live CPU/heap/goroutine inspection of a running
// daemon (go tool pprof http://host:port/debug/pprof/profile), and hands
// every other request straight to api, so an API request is routed once.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
			mux.ServeHTTP(w, r)
			return
		}
		api.ServeHTTP(w, r)
	})
}
