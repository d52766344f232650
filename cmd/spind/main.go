// Command spind is the simulation-as-a-service daemon: an HTTP API over
// the SPIN simulator with a content-addressed result cache and
// Prometheus metrics.
//
// Endpoints:
//
//	POST /v1/simulate   one scenario (harness JSON + optional "check");
//	                    ?stream=sse streams the windowed time-series live
//	POST /v1/sweep      one figure sweep ({"fig":"7", ...})
//	GET  /v1/trace/<id> a request's span tree, merged across the fleet
//	                    (?format=perfetto for a Perfetto-loadable timeline)
//	GET  /v1/version    build identity (version, commit, Go toolchain)
//	GET  /healthz       liveness + queue snapshot
//	GET  /readyz        readiness (fails while draining or pre-gossip)
//	GET  /metrics       Prometheus text exposition
//	GET  /v1/fleet      fleet membership, ring, and counters (with -peers)
//	GET  /debug/pprof/  net/http/pprof profiling of the live daemon
//
// Identical requests — after canonicalization, so spelling out defaults
// does not matter — share one cache entry keyed by the SHA-256 of the
// canonical request plus the result-schema version, and concurrent
// identical requests run the simulation once. Responses carry X-Cache
// (hit | miss | shared) and X-Cache-Key headers.
//
// With -peers, multiple daemons form a fleet: gossip membership, a
// consistent-hash ring assigning every cache key one owner, peer
// cache-fill before simulating, and proxying to the owner (or computing
// locally and backfilling when the owner is down). Results stay
// byte-identical to a single node — the fleet only moves cached bytes.
//
// The daemon sheds load instead of collapsing: past -queue waiting jobs
// it answers 429 with Retry-After. SIGINT/SIGTERM drain gracefully —
// readiness fails first, fleet peers are told we are leaving, then
// in-flight requests complete before the process exits.
//
// Usage:
//
//	spind -addr :8080 -cachedir /var/cache/spind
//	spind -addr :8081 -peers 127.0.0.1:8080 -node b
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
	"repro/internal/fleet"
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
		node      = flag.String("node", "", "fleet node ID (default: the advertise address)")
		advertise = flag.String("advertise", "", "host:port peers reach this node at (default: 127.0.0.1 + the -addr port)")
		peers     = flag.String("peers", "", "comma-separated seed addresses of other fleet members (empty = no fleet)")
		gossip    = flag.Duration("gossip", time.Second, "fleet gossip interval (suspicion at 3x, death at 10x)")
	)
	flag.Parse()

	store, err := cache.Open(*cachedir, *cachemem)
	if err != nil {
		log.Fatalf("opening cache: %v", err)
	}
	// Request and fleet logs are structured JSON records on stderr (one
	// object per line: request ID, trace/span IDs, hop path, ...), so
	// they are machine-queryable; daemon lifecycle lines stay on the
	// plain logger.
	jsonLog := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := serve.Config{
		Cache:     store,
		Workers:   *workers,
		QueueSize: *queue,
		Timeout:   *timeout,
		MaxCycles: *maxcycles,
	}
	if *reqlog {
		cfg.Log = jsonLog
	}

	// Fleet mode: any -peers (or an explicit -node/-advertise) joins this
	// daemon to a gossip fleet. A lone daemon stays exactly as before.
	var (
		fl       *fleet.Fleet
		adv      = *advertise
		seedList []string
	)
	if *peers != "" || *node != "" || *advertise != "" {
		if adv == "" {
			// A bare ":8080" listen address is reachable locally; fleets
			// spanning hosts must set -advertise explicitly.
			if strings.HasPrefix(*addr, ":") {
				adv = "127.0.0.1" + *addr
			} else {
				adv = *addr
			}
		}
		id := *node
		if id == "" {
			id = adv
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				seedList = append(seedList, p)
			}
		}
		fl, err = fleet.New(fleet.Config{
			ID:        id,
			Advertise: adv,
			Peers:     seedList,
			Interval:  *gossip,
			Cache:     store,
			CacheStats: func() fleet.CacheInfo {
				st := store.Snapshot()
				return fleet.CacheInfo{Hits: st.Hits, DiskHits: st.DiskHits, Misses: st.Misses, Entries: st.MemEntries}
			},
			ProxyTimeout: *timeout + 30*time.Second,
			Version:      serve.ReadBuild().String(),
			Log:          jsonLog,
		})
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		cfg.Fleet = fl
	}

	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The API handler takes every path except the profiling namespace:
	// /debug/pprof is served by net/http/pprof for live CPU/heap/goroutine
	// inspection of a running daemon (go tool pprof
	// http://host:port/debug/pprof/profile).
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hs := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if fl != nil {
		// Gossip starts after the listener: the first exchange needs peers
		// to be able to dial back.
		fl.Start()
		log.Printf("fleet: node %s advertising %s (%d seed peers, gossip %v)", fl.SelfID(), adv, len(seedList), *gossip)
	}
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
	// here), tell fleet peers we are leaving (they drop us from their
	// rings instead of waiting out suspicion), stop accepting
	// connections, let in-flight requests (and the simulations they wait
	// on) complete, then stop the pool and the gossip loop.
	srv.SetDraining(true)
	if fl != nil {
		fl.Leave()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	if fl != nil {
		fl.Close()
	}
	st := srv.Snapshot()
	log.Printf("bye: %d hits (%d disk), %d misses, %d shared, %d errors",
		st.Hits, st.DiskHits, st.Misses, st.Shared, st.Errors)
}
