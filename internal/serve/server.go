// Package serve is the simulation-as-a-service subsystem behind
// cmd/spind: an HTTP API that accepts canonical-JSON simulation and
// sweep requests, answers repeats from a content-addressed result cache
// (internal/cache), and runs misses on a bounded internal/runner pool
// with per-request timeouts, client-disconnect cancellation, and
// load-shedding backpressure instead of collapse.
//
// The request lifecycle is: strict decode → validate → normalize →
// content-address (SHA-256 over the canonical encoding plus
// ResultVersion) → cache.Do, which either replays the stored bytes,
// joins an identical in-flight computation (singleflight), or leads a
// new one on the pool. Responses are byte-identical across cache hits
// forever, because simulations are deterministic in their canonical
// request.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spin "repro"
	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/otrace"
	"repro/internal/prom"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The request headers spind reads and echoes: a client's correlation ID,
// and its W3C trace context, under which the request's root span is
// parented.
const (
	headerRequestID   = "X-Request-Id"
	headerTraceparent = "Traceparent"
)

// ResultVersion names the semantics of cached results. It participates
// in every cache key, so bumping it invalidates all previously stored
// results. Bump it whenever simulator behaviour or a response/result
// schema changes (see internal/exp's golden schema test).
const ResultVersion = "spin-results-v3"

// Config assembles a Server.
type Config struct {
	// Cache is the result store (required).
	Cache *cache.Store
	// Workers bounds concurrently running jobs (0 = GOMAXPROCS).
	Workers int
	// QueueSize bounds accepted-but-not-running jobs (0 = 4x workers);
	// beyond it the server sheds load with 429 + Retry-After.
	QueueSize int
	// Timeout bounds each request's simulation work (0 = 2 minutes).
	Timeout time.Duration
	// MaxCycles rejects requests asking for more simulated cycles than
	// the deployment wants to pay for (0 = 2,000,000).
	MaxCycles int64
	// Log, when non-nil, receives one structured record per request:
	// request ID, endpoint, status code, cache outcome, job key,
	// duration, and the request's trace/span IDs — all as slog attrs, so
	// a JSON handler yields machine-queryable request logs. The request
	// ID is echoed in the X-Request-ID header and in error bodies, so a
	// client-reported failure is one query away from its server-side
	// record.
	Log *slog.Logger
}

// SimRequest is the /v1/simulate body: a run description plus serving-
// only knobs. The scenario's own fields (topology, routing, traffic,
// rate, cycles, seed, ...) are documented on spin.Config.
type SimRequest struct {
	harness.Scenario
	// Check attaches the runtime invariant checker and reports its
	// verdict in the response.
	Check bool `json:"check,omitempty"`
	// Telemetry adds a latency-percentile summary and a windowed
	// time-series to the response. (Simulator-level Prometheus metrics
	// are recorded for every request regardless.)
	Telemetry bool `json:"telemetry,omitempty"`
	// Epoch is the time-series window in cycles (0 = default 100; only
	// meaningful with Telemetry).
	Epoch int64 `json:"epoch,omitempty"`
}

// normalized returns the canonical form of the request.
func (r SimRequest) normalized() SimRequest {
	return SimRequest{Scenario: r.Scenario.Normalized(), Check: r.Check, Telemetry: r.Telemetry,
		Epoch: harness.TelemetryEpoch(r.Telemetry, r.Epoch)}
}

// canonical returns the canonical bytes of the request.
func (r SimRequest) canonical() []byte { return spin.CanonicalJSON(r.normalized()) }

// SimStats is the measured outcome of one simulation.
type SimStats struct {
	Injected      int64   `json:"injected"`
	Ejected       int64   `json:"ejected"`
	AvgLatency    float64 `json:"avg_latency"`
	AvgNetLatency float64 `json:"avg_net_latency"`
	MaxLatency    int64   `json:"max_latency"`
	AvgHops       float64 `json:"avg_hops"`
	Throughput    float64 `json:"throughput"`
	Spins         int64   `json:"spins"`
	// Drained is present only when the request asked for a drain
	// (drain_cycles > 0).
	Drained *bool `json:"drained,omitempty"`
}

// CheckReport is the invariant checker's verdict, present when the
// request set check.
type CheckReport struct {
	OK               bool            `json:"ok"`
	Violations       []sim.Violation `json:"violations,omitempty"`
	MaxDeadlockSpell int64           `json:"max_deadlock_spell"`
}

// SimResponse is the /v1/simulate body: the canonical request echoed
// back, its content address, and the results.
type SimResponse struct {
	Key     string       `json:"key"`
	Request SimRequest   `json:"request"`
	Stats   SimStats     `json:"stats"`
	Check   *CheckReport `json:"check,omitempty"`
	// Latency and TimeSeries are present when the request set telemetry.
	Latency    *sim.LatencySummary `json:"latency,omitempty"`
	TimeSeries *sim.TimeSeries     `json:"time_series,omitempty"`
}

// Server is the HTTP serving subsystem. Construct with New; it is ready
// immediately and stopped with Close.
type Server struct {
	cfg   Config
	store *cache.Store
	pool  *runner.Pool[[]byte]
	// sims keeps the simulations the last misses ran on, at most one per
	// worker, so a miss of a shape a worker has just run rewinds it.
	sims    *spin.Pool
	handler *router
	start   time.Time

	reg         *prom.Registry
	mRequests   *prom.Counter
	mReqSeconds *prom.Histogram
	mSimCycles  *prom.Histogram
	mSimSeconds *prom.Histogram

	// Simulator-level series, fed from each executed request's stats and
	// telemetry (cache hits don't re-observe: they ran no simulator).
	mSimSpins     *prom.Counter
	mSimRecovers  *prom.Counter
	mSimProbes    *prom.Counter
	mSimKillMoves *prom.Counter
	mSimDeadlocks *prom.Counter
	mSimLatency   *prom.Histogram
	mSimBuilds    *prom.CounterSeries // spind_sim_setups_total{how="build"}
	mSimRewinds   *prom.CounterSeries // and {how="rewind"}

	// workersEff is the resolved pool size (spind_workers_effective).
	workersEff int

	// draining flips when shutdown starts so /readyz fails before the
	// listener closes (load balancers stop routing while in-flight
	// requests finish).
	draining atomic.Bool

	// tracer records every request's span tree into a bounded ring
	// (served by /v1/trace/<id>); mSpanSeconds is the per-span-name
	// duration histogram its OnEnd hook feeds. build is the daemon's
	// identity, resolved once (served by /v1/version and spind_build_info).
	tracer       *otrace.Tracer
	mSpanSeconds *prom.Histogram
	build        BuildInfo

	// idPrefix is a start-time salt: request IDs of different daemon runs
	// don't collide in aggregated logs. reqSeq numbers them.
	idPrefix string
	reqSeq   atomic.Uint64

	// testCompute, when set (tests only), replaces the simulation body
	// of /v1/simulate pool jobs. It still runs on the pool, so panic
	// capture and queueing behave exactly as in production.
	testCompute func(ctx context.Context, req SimRequest) ([]byte, error)
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("serve: Config.Cache is required")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000
	}
	if cfg.QueueSize == 0 {
		workers := cfg.Workers
		if workers <= 0 {
			workers = 1
		}
		cfg.QueueSize = 4 * workers
	}
	s := &Server{cfg: cfg, store: cfg.Cache, start: time.Now(), reg: prom.NewRegistry(), tracer: otrace.NewTracer()}
	s.build = readBuild()
	s.idPrefix = strconv.FormatInt(s.start.UnixNano()&0xffffffff, 16) + "-"

	s.workersEff = cfg.Workers
	if s.workersEff <= 0 {
		s.workersEff = runtime.GOMAXPROCS(0)
	}
	s.sims = spin.NewPool(s.workersEff)

	s.mRequests = s.reg.Counter("spind_requests_total", "HTTP requests by endpoint and status code.")
	s.mReqSeconds = s.reg.Histogram("spind_request_duration_seconds", "End-to-end request latency by endpoint.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60})
	s.reg.GaugeFunc("spind_queue_depth", "Jobs accepted but not yet running.", func() float64 {
		queued, _ := s.pool.Depth()
		return float64(queued)
	})
	s.reg.GaugeFunc("spind_inflight_jobs", "Jobs currently executing on the pool.", func() float64 {
		_, running := s.pool.Depth()
		return float64(running)
	})
	s.mSimCycles = s.reg.Histogram("spind_simulation_cycles", "Simulated cycles per executed request.",
		[]float64{1e3, 1e4, 1e5, 1e6, 1e7})
	s.mSimSeconds = s.reg.Histogram("spind_simulation_duration_seconds", "Wall-clock time per executed simulation.",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120})
	s.mSimSpins = s.reg.Counter("spind_sim_spins_total", "Synchronized SPIN movements performed by executed simulations.")
	s.mSimRecovers = s.reg.Counter("spind_sim_recoveries_total", "SPIN deadlock recoveries completed by executed simulations.")
	s.mSimProbes = s.reg.Counter("spind_sim_probes_total", "SPIN probe messages sent by executed simulations.")
	s.mSimKillMoves = s.reg.Counter("spind_sim_kill_moves_total", "SPIN kill_move messages sent by executed simulations.")
	s.mSimDeadlocks = s.reg.Counter("spind_sim_deadlock_firings_total", "Deadlock-oracle firings observed by executed simulations (checked requests only).")
	setups := s.reg.Counter("spind_sim_setups_total", "Executed simulations by how their network came to be: built, or rewound from one an earlier request of that shape ran on.")
	s.mSimBuilds, s.mSimRewinds = setups.With("how", "build"), setups.With("how", "rewind")
	s.mSimLatency = s.reg.Histogram("spind_sim_packet_latency_cycles", "Packet-latency percentiles (quantile label) per executed simulation, in cycles.",
		[]float64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 100000})
	s.mSpanSeconds = s.reg.Histogram("spind_span_duration_seconds", "Request span durations by span name.",
		[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5, 10, 30, 60})
	s.reg.GaugeSetFunc("spind_build_info", "Build identity of this daemon (value is always 1; the labels carry the information).", func() []prom.Sample {
		return []prom.Sample{{Labels: prom.Labels("version", s.build.Version, "commit", s.build.Commit, "go", s.build.Go), Value: 1}}
	})
	snap := func(f func(cache.Stats) float64) func() float64 {
		return func() float64 { return f(s.store.Snapshot()) }
	}
	s.reg.CounterFunc("spind_cache_hits_total", "Requests answered from the result cache.",
		snap(func(st cache.Stats) float64 { return float64(st.Hits) }))
	s.reg.CounterFunc("spind_cache_disk_hits_total", "Cache hits served from the disk tier.",
		snap(func(st cache.Stats) float64 { return float64(st.DiskHits) }))
	s.reg.CounterFunc("spind_cache_misses_total", "Requests that led a new computation.",
		snap(func(st cache.Stats) float64 { return float64(st.Misses) }))
	s.reg.CounterFunc("spind_singleflight_shared_total", "Requests that joined an identical in-flight computation.",
		snap(func(st cache.Stats) float64 { return float64(st.Shared) }))
	s.reg.CounterFunc("spind_compute_errors_total", "Led computations that failed (never cached).",
		snap(func(st cache.Stats) float64 { return float64(st.Errors) }))
	s.reg.CounterFunc("spind_cache_corrupt_evictions_total", "On-disk cache entries that failed strict decode and were evicted (served as misses).",
		snap(func(st cache.Stats) float64 { return float64(st.Corrupt) }))
	s.reg.GaugeFunc("spind_cache_mem_entries", "Entries in the in-memory cache tier.",
		snap(func(st cache.Stats) float64 { return float64(st.MemEntries) }))
	s.reg.GaugeFunc("spind_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("spind_workers_effective", "Resolved worker-pool size (concurrent simulations).",
		func() float64 { return float64(s.workersEff) })

	s.pool = runner.NewPool[[]byte](runner.PoolOptions{
		Workers:   cfg.Workers,
		QueueSize: cfg.QueueSize,
		Timeout:   cfg.Timeout,
	})

	// An instrumented endpoint's name is its requests' root span's.
	endpoints := []struct {
		name, pattern string
		h             http.HandlerFunc
	}{
		{"simulate", "/v1/simulate", s.handleSimulate},
		{"sweep", "/v1/sweep", s.handleSweep},
		{"trace", "/v1/trace/", s.handleTrace},
		{"version", "/v1/version", s.handleVersion},
		{"healthz", "/healthz", s.handleHealthz},
	}
	routes := []route{{"/readyz", s.handleReadyz}, {"/metrics", s.handleMetrics}}
	for _, e := range endpoints {
		routes = append(routes, route{e.pattern, s.instrument(e.name, e.h)})
	}
	s.handler = newRouter(routes)
	s.tracer.OnEnd(s.spanObserver())
	return s, nil
}

// spanObserver is the tracer's OnEnd hook: it feeds a span's duration to
// its spind_span_duration_seconds series. A name's series is bound at its
// first span and kept in a list that is scanned with no lock and replaced
// by a longer copy to add a name; there are as many names as span kinds.
func (s *Server) spanObserver() func(string, time.Duration) {
	type named struct {
		name   string
		series *prom.HistogramSeries
	}
	var (
		mu    sync.Mutex // serialises adding a name
		names atomic.Pointer[[]named]
	)
	names.Store(new([]named))
	find := func(name string) *prom.HistogramSeries {
		for _, n := range *names.Load() {
			if n.name == name {
				return n.series
			}
		}
		return nil
	}
	return func(name string, dur time.Duration) {
		h := find(name)
		if h == nil {
			mu.Lock()
			if h = find(name); h == nil {
				h = s.mSpanSeconds.With("span", name)
				grown := append(slices.Clip(*names.Load()), named{name, h})
				names.Store(&grown)
			}
			mu.Unlock()
		}
		h.Observe(dur.Seconds())
	}
}

// route is one path the server answers: an http.ServeMux pattern and its
// handler.
type route struct {
	pattern string
	h       http.HandlerFunc
}

// router answers a request whose path is exactly a route's pattern from a
// table, and every other request from an http.ServeMux holding the same
// routes.
type router struct {
	exact map[string]http.HandlerFunc
	mux   *http.ServeMux
}

func newRouter(routes []route) *router {
	rt := &router{exact: make(map[string]http.HandlerFunc), mux: http.NewServeMux()}
	for _, r := range routes {
		rt.mux.HandleFunc(r.pattern, r.h)
		if !strings.HasSuffix(r.pattern, "/") {
			rt.exact[r.pattern] = r.h
		}
	}
	return rt
}

// ServeHTTP takes the table only where the mux would reach the same
// handler with nothing to answer first: a path the table holds, which is
// clean, escaped as url.URL would escape it (an empty RawPath; the mux
// matches escaped segments, so /v1%2Fsimulate is not /v1/simulate there).
// That holds under CONNECT too, whose path the mux does not clean.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawPath == "" {
		if h := rt.exact[r.URL.Path]; h != nil {
			h(w, r)
			return
		}
	}
	rt.mux.ServeHTTP(w, r)
}

// Handler returns the server's HTTP handler. A request for exactly
// /v1/simulate, /v1/sweep, /v1/version, /healthz, /readyz or /metrics
// goes straight to its handler, found in a table; every other request —
// under /v1/trace/, a path to clean or unescape, an unknown path, * —
// goes to an http.ServeMux holding the same routes, which answers it as it
// would alone (its 301s, 400s and 404s included).
func (s *Server) Handler() http.Handler { return s.handler }

// Workers reports the resolved worker-pool size (what
// spind_workers_effective exposes).
func (s *Server) Workers() int { return s.workersEff }

// Close drains the worker pool. Call after the HTTP listener has shut
// down, so no request is still waiting on a job.
func (s *Server) Close() { s.pool.Close() }

// statusWriter captures the response code for metrics and, being what
// every instrumented handler writes to, carries the request's record and
// backs the values of its X-Request-Id and Traceparent headers (slices of
// one string when the ID is minted here).
type statusWriter struct {
	http.ResponseWriter
	code int
	info reqInfo
	hdr  [2]string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the instrumentation layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqInfo is the per-request record behind request logging: the ID
// assigned at ingress plus whatever the handler learns along the way
// (cache outcome, job key).
type reqInfo struct {
	id    string
	cache string
	key   string
	// span is the request's root span; handlers hang the top-level child
	// spans off it (decode, validate, cache — the rest nest under cache).
	span     *otrace.Span
	query    url.Values   // parsed once; nil (every Get "") without a query string
	digest   cache.Digest // of the body as it arrived, for the tail to alias
	digested bool         // whether digest is set
}

// requestInfo retrieves the request record. Every handler that reads it
// is mounted through instrument, which is what puts it there.
func requestInfo(w http.ResponseWriter) *reqInfo { return &w.(*statusWriter).info }

// appendRequestID appends a process-unique request ID, the sequence
// number zero-padded to six digits.
func (s *Server) appendRequestID(b []byte) []byte {
	var seq [20]byte
	n := strconv.AppendUint(seq[:0], s.reqSeq.Add(1), 10)
	b = append(b, s.idPrefix...)
	b = append(b, "000000"[min(len(n), 6):]...)
	return append(b, n...)
}

// firstValue is a header's first value: Header.Get without canonicalising
// a key that is canonical already, as net/http leaves every key it parsed.
func firstValue(vs []string) string {
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// codeSeries is a status code's text and its spind_requests_total series.
type codeSeries struct {
	text string
	n    *prom.CounterSeries
}

// instrument wraps a handler with the request counter, the latency
// histogram, the request-ID header, the request's root span, and the
// per-request log record. An incoming X-Request-ID (a client
// correlation ID) is adopted instead of minting a new one, so the
// client's ID is the one in the daemon's log; an incoming traceparent
// likewise parents this request's root span under the caller's span, so
// the server's tree continues the client's trace. What no request changes is
// bound once: the latency series here, a status code's text and counter
// series the first time the endpoint answers it. The clock is read at the
// start, which is the root span's too, and once at the end: the duration
// the histogram, the log record and the root span share.
func (s *Server) instrument(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	seconds := s.mReqSeconds.With("endpoint", endpoint)
	var codes sync.Map // int -> *codeSeries
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, info: reqInfo{id: sanitizeRequestID(firstValue(r.Header[headerRequestID])), cache: "-", key: "-"}}
		info := &sw.info
		info.span = s.tracer.StartRequest(endpoint, firstValue(r.Header[headerTraceparent]), start)
		// A minted ID and the traceparent are rendered into one string, so
		// both header values cost one allocation.
		var b [128]byte
		ids := b[:0]
		if info.id == "" {
			ids = s.appendRequestID(ids)
		}
		n := len(ids)
		both := string(info.span.AppendTraceparent(ids))
		if info.id == "" {
			info.id = both[:n]
		}
		sw.hdr = [2]string{info.id, both[n:]}
		info.span.SetAttr("request_id", info.id)
		if r.URL.RawQuery != "" {
			info.query = r.URL.Query()
		}
		h := w.Header()
		h[headerRequestID] = sw.hdr[0:1:1]
		h[headerTraceparent] = sw.hdr[1:2:2]
		next(sw, r)
		dur := time.Since(start)
		code, ok := codes.Load(sw.code)
		if !ok {
			text := strconv.Itoa(sw.code)
			code, _ = codes.LoadOrStore(sw.code, &codeSeries{text, s.mRequests.With("endpoint", endpoint, "code", text)})
		}
		code.(*codeSeries).n.Add(1)
		seconds.Observe(dur.Seconds())
		info.span.SetAttr("code", code.(*codeSeries).text)
		info.span.SetAttr("cache", info.cache)
		info.span.EndAfter(dur)
		if s.cfg.Log != nil {
			s.cfg.Log.Info("request",
				slog.String("id", info.id),
				slog.String("endpoint", endpoint),
				slog.Int("code", sw.code),
				slog.String("cache", info.cache),
				slog.String("key", info.key),
				slog.Duration("dur", dur.Round(time.Microsecond)),
				slog.String("trace", info.span.TraceID()),
				slog.String("span", info.span.SpanID()),
			)
		}
	}
}

// sanitizeRequestID accepts a client's request ID only when it is
// log-grep-safe: short and free of whitespace, quotes, and control
// bytes (an attacker-controlled header must not forge log fields).
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return ""
		}
	}
	return id
}

// httpError answers an error with the request ID appended, so a client
// report can be matched to the daemon's log line.
func httpError(w http.ResponseWriter, msg string, code int) {
	http.Error(w, msg+" (request "+requestInfo(w).id+")", code)
}

// handleHealthz reports liveness plus a queue snapshot. Liveness only:
// a draining daemon is still alive (it must finish in-flight work), so
// orchestrators should restart on /healthz and route on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.pool.Depth()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","uptime_seconds":%.1f,"queued":%d,"running":%d}`+"\n",
		time.Since(s.start).Seconds(), queued, running)
}

// handleReadyz reports readiness: whether this daemon should receive new
// traffic. It fails while draining (shutdown has begun but in-flight
// requests are finishing).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// SetDraining flips the readiness gate; cmd/spind sets it when shutdown
// begins, before closing the listener, so load balancers stop routing
// here while in-flight requests complete.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	s.reg.Render(w)
}

// errBadRequest marks errors caused by the request content (as opposed
// to server state), mapped to 400.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

// readRequest is the shared request head of /v1/simulate and /v1/sweep:
// POST only, a body of at most 1 MiB, then one of two ways to the tail.
// Decode, Validate, limits, normalise, encode and hash are a pure function
// of the bytes under this server's fixed config, so bytes it answered
// before (serveCached attaches their digest, salted like the endpoint's
// keys), whose value the memory tier still holds, are a hit under one cache
// span; ?stream=sse, which needs the decoded request, bypasses. Any other
// body is decoded strictly under a decode span and validated under a
// validate span. !ok means the request is answered (an alias hit, 405, 400).
func readRequest[T interface{ Validate() error }](s *Server, w http.ResponseWriter, r *http.Request, salt, what string, decode func(io.Reader) (T, error)) (req T, ok bool) {
	if r.Method != http.MethodPost {
		httpError(w, "POST a "+what+" JSON body", http.StatusMethodNotAllowed)
		return req, false
	}
	info := requestInfo(w)
	start := info.span.Now()
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	// The body lands after the salt and a 0, so the buffer is the very
	// input KeyOf hashes: one Sum256 is the digest.
	buf := bodyBufs.Get().(*[]byte)
	defer putBodyBuf(buf)
	*buf = append(append((*buf)[:0], salt...), 0)
	var err error
	*buf, err = readAll(*buf, body)
	raw := (*buf)[len(salt)+1:]
	if err == nil && info.query.Get("stream") == "" {
		info.digest, info.digested = sha256.Sum256(*buf), true
		if key, val, hit := s.store.GetAlias(info.digest); hit {
			cs := info.span.StartChildAt("cache", start)
			cs.SetAttr("via", "alias")
			s.respond(w, r, cs, key, val, cache.Hit, nil, nil)
			return req, false
		}
	}
	ds := info.span.StartChildAt("decode", start)
	// body repeats how it ended (EOF or a failure) on further Reads, so the
	// decoder still words the answer to an oversize or truncated body.
	req, err = decode(io.MultiReader(bytes.NewReader(raw), body))
	ds.End()
	if err == nil {
		vs := info.span.StartChild("validate")
		err = req.Validate()
		vs.End()
	}
	if err != nil {
		httpError(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// bodyBufs holds request-body buffers between requests; putBodyBuf keeps
// none larger than a typical body's 64 KiB, so a rare large body does not
// pin its buffer.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

func putBodyBuf(b *[]byte) {
	if cap(*b) <= 64<<10 {
		bodyBufs.Put(b)
	}
}

// readAll is io.ReadAll appending to b.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// handleSimulate is POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(s, w, r, ResultVersion+"/simulate", "scenario", harness.DecodeStrict[SimRequest])
	if !ok {
		return
	}
	if req.Epoch < 0 {
		httpError(w, fmt.Sprintf("bad request: epoch must be >= 0, got %d", req.Epoch), http.StatusBadRequest)
		return
	}
	if req.Cycles > s.cfg.MaxCycles || req.DrainCycles > 100*s.cfg.MaxCycles {
		httpError(w, fmt.Sprintf("bad request: cycles beyond this server's limit (%d)", s.cfg.MaxCycles), http.StatusBadRequest)
		return
	}
	n := req.normalized()
	key := cache.KeyOf(ResultVersion+"/simulate", n.canonical())
	var sse *sseWriter // ?stream=sse: a response mode, not part of the key (see stream.go)
	var window int64
	var onSample func(sim.WindowSample)
	if stream := requestInfo(w).query.Get("stream"); stream != "" {
		if stream != "sse" {
			httpError(w, fmt.Sprintf("bad request: unknown stream mode %q (want sse)", stream), http.StatusBadRequest)
			return
		}
		if sse = newSSEWriter(w, key); sse == nil {
			httpError(w, "streaming unsupported by this connection", http.StatusNotImplemented)
			return
		}
		defer sse.close()
		window, onSample = streamWindowFor(req, n), sse.sample
	}
	s.serveCached(w, r, key, sse,
		func(ctx context.Context, cs *otrace.Span) ([]byte, error) {
			return s.runSim(ctx, n, key, window, onSample, cs)
		})
}

// handleSweep is POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(s, w, r, ResultVersion+"/sweep", "sweep request", exp.DecodeSweepRequest)
	if !ok {
		return
	}
	n := req.Normalized()
	if n.Cycles > s.cfg.MaxCycles {
		httpError(w, fmt.Sprintf("bad request: cycles beyond this server's limit (%d)", s.cfg.MaxCycles), http.StatusBadRequest)
		return
	}
	n.Workers = s.cfg.Workers
	key := cache.KeyOf(ResultVersion+"/sweep", n.Canonical())
	s.serveCached(w, r, key, nil,
		func(ctx context.Context, cs *otrace.Span) ([]byte, error) {
			v, err := exp.Sweep(ctx, n.Fig, n)
			if err != nil {
				return nil, err
			}
			// The figure's canonical JSON IS the response body — the same
			// bytes spinsweep -json prints, so CLI and API can never drift.
			return encodeBody(cs, v)
		})
}

// encodeBody renders a response value with the shared encoder under an
// encode span.
func encodeBody(span *otrace.Span, v interface{}) ([]byte, error) {
	es := span.StartChild("encode")
	defer es.End()
	var buf bytes.Buffer
	if err := exp.EncodeJSON(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveCached is the one request tail, shared by /v1/simulate, /v1/sweep
// and the SSE view of /v1/simulate: consult the cache (deduping
// concurrent identical requests), on a miss run the computation on the
// pool, map failure modes to status codes, and emit the result. sse,
// when non-nil, selects the event-stream response mode: heartbeats while
// waiting, the result (or the error) as an event instead of a plain body.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, sse *sseWriter, run func(context.Context, *otrace.Span) ([]byte, error)) {
	info := requestInfo(w)
	// One span covers lookup, singleflight join, and any led computation
	// — its children (queue_wait, compute) say which of those it was; the
	// outcome attr says how the cache answered. Nothing but decode and
	// validate sits beside it, so the root's children add up to the
	// request.
	cs := info.span.StartChild("cache")
	body, outcome, err := sse.await(func() ([]byte, cache.Outcome, error) {
		return s.store.Do(r.Context(), key, s.onPool(cs, key, run))
	})
	if err == nil && info.digested {
		// The bytes' next repeat skips the way here while memory holds key.
		s.store.Alias(info.digest, key)
	}
	s.respond(w, r, cs, []string{key}, body, outcome, err, sse)
}

// The values of the response headers no request changes, shared by every
// response: net/http only reads them.
var (
	jsonContentType = []string{"application/json"}
	xCacheValues    = [...][]string{cache.Hit: {"hit"}, cache.Miss: {"miss"}, cache.Shared: {"shared"}}
)

// respond is serveCached's end and the whole of an alias hit: it closes
// the cache span cs with the outcome, then writes the error, the stream's
// result event, or the headers and the body. key is the one-element value
// of the X-Cache-Key header.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, cs *otrace.Span, key []string, body []byte, outcome cache.Outcome, err error, sse *sseWriter) {
	info := requestInfo(w)
	info.key = key[0]
	info.cache = outcome.String()
	if err != nil {
		info.cache = "error"
	}
	cs.SetAttr("outcome", info.cache)
	cs.End()
	switch {
	case err != nil:
		// A stream that has already written events reports in-band; one
		// that has not (and every plain request) gets the status mapping.
		if sse == nil || !sse.fail(info.id, err) {
			s.writeError(w, r, err)
		}
	case sse != nil:
		sse.event("result", body)
	default:
		h := w.Header()
		h["Content-Type"] = jsonContentType
		h["X-Cache"] = xCacheValues[outcome]
		h["X-Cache-Key"] = key
		if info.query.Get("trace") == "server" {
			// The wrapper is assembled after the lookup, so the cache stores
			// only the inner result bytes — tracing a request never perturbs
			// what is cached.
			body = s.wrapServerTrace(info.span, body)
		}
		w.Write(body)
	}
}

// onPool is the one path onto the worker pool: it wraps a computation
// as the cache's compute function, recording under parent the queue_wait
// span (ended when the job is dequeued, or when the submit is rejected —
// the wasted wait) and the compute span the job runs under.
func (s *Server) onPool(parent *otrace.Span, key string, run func(context.Context, *otrace.Span) ([]byte, error)) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		qw := parent.StartChild("queue_wait")
		b, err := s.pool.Submit(ctx, runner.Job[[]byte]{Key: key, Run: func(jctx context.Context, _ int64) ([]byte, error) {
			qw.End()
			cs := parent.StartChild("compute")
			defer cs.End()
			return run(jctx, cs)
		}})
		qw.End()
		return b, err
	}
}

// writeError maps computation failures onto HTTP semantics.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *runner.PanicError
	var bad errBadRequest
	switch {
	case r.Context().Err() != nil:
		// The client is gone; nothing can be written. 499 (nginx's
		// "client closed request") keeps the metrics honest.
		w.WriteHeader(499)
	case errors.Is(err, runner.ErrQueueFull):
		w.Header().Set("Retry-After", "2")
		httpError(w, "overloaded: job queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, runner.ErrPoolClosed):
		httpError(w, "shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, fmt.Sprintf("simulation exceeded the per-request budget (%v)", s.cfg.Timeout), http.StatusGatewayTimeout)
	case errors.As(err, &pe):
		// The panic is captured, the daemon lives on; the job key lets
		// operators replay the poisoned request.
		httpError(w, fmt.Sprintf("internal error: job %s panicked: %v", pe.Key, pe.Value), http.StatusInternalServerError)
	case errors.As(err, &bad):
		httpError(w, "bad request: "+bad.Error(), http.StatusBadRequest)
	default:
		httpError(w, "internal error: "+err.Error(), http.StatusInternalServerError)
	}
}

// runSim is the simulation body of /v1/simulate: build the scenario's
// network, hand it to the shared run driver, fill the response. When
// onSample is non-nil (the SSE path) each freshly closed time-series
// window is delivered as the simulation progresses; the driver's chunked
// stepping and observers never change state, so the rendered bytes — the
// value that gets cached — are identical with and without streaming.
// span, when non-nil, gets per-epoch child spans on windowed runs plus
// an encode span (span is passed explicitly, not via ctx: the
// singleflight leader's ctx is detached from the request that started
// the span).
func (s *Server) runSim(ctx context.Context, req SimRequest, key string, streamWindow int64, onSample func(sim.WindowSample), span *otrace.Span) ([]byte, error) {
	if s.testCompute != nil {
		return s.testCompute(ctx, req)
	}
	start := time.Now()
	sc := req.Scenario
	// The pool's simulation comes back Reset to the scenario, with
	// whatever traffic source it carries — synthetic, shaped workload,
	// explicit injections, or a streamed binary trace; the pool gets it
	// back only from a run that completed.
	simulation, err := s.sims.Get(sc)
	if err != nil {
		// The specs parsed as JSON but name unknown topologies/routings:
		// the client's fault, not the server's.
		return nil, errBadRequest{err}
	}
	if simulation.Rewound() {
		s.mSimRewinds.Add(1)
	} else {
		s.mSimBuilds.Add(1)
	}
	// The histogram is always on: it feeds the simulator-level Prometheus
	// series for every executed request. The window is the request's
	// epoch (normalized to 0 without telemetry) or, when streaming a
	// request that has none, the progress-only stream window; the
	// response fields stay gated on req.Telemetry below.
	ob := harness.Observe{Check: req.Check, Drain: sc.DrainCycles > 0, Hist: true, Window: max(req.Epoch, streamWindow)}
	if onSample != nil || (span != nil && ob.Window > 0) {
		// Each window becomes a child span, so the Perfetto view shows
		// where inside the simulation the time went.
		es := span.StartChild("epoch")
		ob.OnWindow = func(done int64, closed []sim.WindowSample) {
			es.End()
			if onSample != nil {
				for _, smp := range closed {
					onSample(smp)
				}
			}
			if done < sc.Cycles {
				es = span.StartChild("epoch")
			}
		}
	}
	res, err := harness.Drive(ctx, sc, simulation.Network(), ob)
	if err != nil {
		if ctx.Err() == nil {
			// Not a cancellation: the scenario's trace named something
			// the topology cannot host. 400, and never cached.
			return nil, errBadRequest{err}
		}
		return nil, err
	}
	st := &res.Stats
	resp := SimResponse{
		Key:     key,
		Request: req,
		Stats: SimStats{
			Injected:      st.Injected,
			Ejected:       st.Ejected,
			AvgLatency:    st.AvgLatency(),
			AvgNetLatency: st.AvgNetLatency(),
			MaxLatency:    st.MaxLatency,
			AvgHops:       st.AvgHops(),
			Throughput:    st.Throughput(simulation.Topology().NumTerminals()),
			Spins:         st.Spins,
		},
	}
	if sc.DrainCycles > 0 {
		resp.Stats.Drained = &res.Drained
	}
	if req.Check {
		resp.Check = &CheckReport{
			OK:               len(res.Violations) == 0,
			Violations:       res.Violations,
			MaxDeadlockSpell: res.MaxDeadlockSpell,
		}
	}
	if req.Telemetry {
		resp.Latency, resp.TimeSeries = res.Latency, res.TimeSeries
	}
	s.observeSimulator(simulation.Stats(), res)
	s.sims.Put(simulation)
	s.mSimCycles.Observe(float64(sc.Cycles))
	s.mSimSeconds.Observe(time.Since(start).Seconds())
	return encodeBody(span, resp)
}

// observeSimulator folds one executed simulation's counters and latency
// percentiles into the simulator-level Prometheus series.
func (s *Server) observeSimulator(st *sim.Stats, res *harness.Result) {
	s.mSimSpins.Add(float64(st.Spins))
	s.mSimRecovers.Add(float64(st.Counter("recoveries")))
	s.mSimProbes.Add(float64(st.Counter("probes_sent")))
	s.mSimKillMoves.Add(float64(st.Counter("kill_moves_sent")))
	s.mSimDeadlocks.Add(float64(res.OracleFirings))
	if sum := res.Latency; sum.Count > 0 {
		s.mSimLatency.With("quantile", "p50").Observe(sum.P50)
		s.mSimLatency.With("quantile", "p95").Observe(sum.P95)
		s.mSimLatency.With("quantile", "p99").Observe(sum.P99)
	}
}

// Snapshot exposes cache statistics (cmd/spind logs them on shutdown).
func (s *Server) Snapshot() cache.Stats { return s.store.Snapshot() }
