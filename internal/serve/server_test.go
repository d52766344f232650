package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/prom"
)

// newTestServer builds a Server over a fresh store. Callers must Close.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cache == nil {
		store, err := cache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = store
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// smallScenario is a fast 4x4-mesh point, the same shape as the paper's
// fig-7 sweep entries but sized for test latency.
const smallScenario = `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1}`

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSimulateRoundTripAndCacheHit is the tentpole acceptance check: a
// real simulation round-trips through /v1/simulate, and the identical
// request replays byte-for-byte from the cache, fast.
func TestSimulateRoundTripAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	var resp SimResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != first.Header().Get("X-Cache-Key") {
		t.Fatalf("body key %q != header key %q", resp.Key, first.Header().Get("X-Cache-Key"))
	}
	if resp.Stats.Injected == 0 || resp.Stats.Ejected == 0 {
		t.Fatalf("simulation moved no traffic: %+v", resp.Stats)
	}
	// The canonical request is echoed back with defaults made explicit.
	if resp.Request.VNets == 0 || resp.Request.VCDepth == 0 {
		t.Fatalf("request echo not normalized: %+v", resp.Request)
	}

	start := time.Now()
	second := post(t, s.Handler(), "/v1/simulate", smallScenario)
	elapsed := time.Since(start)
	if second.Code != http.StatusOK {
		t.Fatalf("repeat status = %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit is not byte-identical to the original response")
	}
	// The paper-facing bound is 10ms; tests allow CI-grade jitter.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cache hit took %v", elapsed)
	}

	// A semantically identical spelling (defaults written out) hits too.
	explicit := `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1,"vnets":1,"vcs_per_vnet":1,"vc_depth":5,"data_frac":0.5,"tdd":128}`
	third := post(t, s.Handler(), "/v1/simulate", explicit)
	if got := third.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("equivalent spelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("equivalent spelling returned different bytes")
	}
}

// TestSimulateSingleflight pins the dedup acceptance criterion: eight
// concurrent identical requests cost exactly one simulation, with the
// other seven joining the in-flight computation.
func TestSimulateSingleflight(t *testing.T) {
	var computes atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 4})
	s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		computes.Add(1)
		<-release
		return []byte(`{"ok":true}`), nil
	}

	const clients = 8
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, clients)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, s.Handler(), "/v1/simulate", smallScenario)
		}(i)
	}
	// Wait until all the late arrivals have joined the flight, then let
	// the single leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.store.Snapshot().Shared < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined: %+v", s.store.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("ran %d simulations for %d identical requests, want 1", n, clients)
	}
	st := s.store.Snapshot()
	if st.Misses != 1 || st.Shared != clients-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d shared", st, clients-1)
	}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
}

// TestQueueFullSheds pins the backpressure path: with the one worker
// busy and the one queue slot taken, the next distinct request is shed
// with 429 and a Retry-After hint.
func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		<-release
		return []byte(`{}`), nil
	}
	body := func(seed int) string {
		return fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":%d}`, seed)
	}
	done := make(chan struct{}, 2)
	// Both held requests must have answered — their results stored — before
	// the test's temp dir is removed under them.
	started := 0
	defer func() {
		close(release)
		for ; started > 0; started-- {
			<-done
		}
	}()
	// The second request goes in once the first is running: sent together,
	// the second can find the first still in the one queue slot and be shed.
	for i, want := range [][2]int{{0, 1}, {1, 1}} {
		started++
		go func(i int) {
			post(t, s.Handler(), "/v1/simulate", body(i))
			done <- struct{}{}
		}(i)
		deadline := time.Now().Add(5 * time.Second)
		for {
			if q, r := s.pool.Depth(); q == want[0] && r == want[1] {
				break
			}
			if time.Now().After(deadline) {
				q, r := s.pool.Depth()
				t.Fatalf("pool never reached %d queued, %d running: queued=%d running=%d", want[0], want[1], q, r)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rec := post(t, s.Handler(), "/v1/simulate", body(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestPanicBecomes500 pins the resilience contract from the runner pool
// up through HTTP: a panicking job answers 500 naming the job key, is
// never cached, and the daemon keeps serving.
func TestPanicBecomes500(t *testing.T) {
	s := newTestServer(t, Config{})
	s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		if req.Seed == 666 {
			panic("injected failure")
		}
		return []byte(`{}`), nil
	}
	evil := `{"topology":"mesh:4x4","routing":"min_adaptive","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":666}`
	rec := post(t, s.Handler(), "/v1/simulate", evil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	wantKey := cache.KeyOf(ResultVersion+"/simulate", SimRequest{Scenario: mustScenario(t, evil)}.canonical())
	if !strings.Contains(rec.Body.String(), wantKey) || !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("500 body does not name the panicked job: %s", rec.Body)
	}

	// The daemon survives and serves the next request normally.
	good := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if good.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d", good.Code)
	}
	// The failure was not cached: retrying the poisoned request computes
	// again (and panics again) rather than replaying an error.
	again := post(t, s.Handler(), "/v1/simulate", evil)
	if again.Code != http.StatusInternalServerError {
		t.Fatalf("retry status = %d, want 500 (recomputed)", again.Code)
	}
	if st := s.store.Snapshot(); st.Errors != 2 {
		t.Fatalf("errors cached? stats = %+v", st)
	}
}

// TestDrainTimeoutIs504: a drain that cannot finish (a schemeless 1-VC mesh
// jammed at half load, two million drain cycles allowed) is held to the
// request's budget like its traffic phase: 504, and nothing cached.
func TestDrainTimeoutIs504(t *testing.T) {
	s := newTestServer(t, Config{Timeout: 200 * time.Millisecond})
	jam := `{"topology":"mesh:8x8","routing":"min_adaptive","vcs_per_vnet":1,"traffic":"uniform_random","rate":0.5,"cycles":3000,"drain_cycles":2000000,"seed":1}`
	start := time.Now()
	rec := post(t, s.Handler(), "/v1/simulate", jam)
	if took := time.Since(start); rec.Code != http.StatusGatewayTimeout || took > 2*time.Second {
		t.Fatalf("status %d after %v, want 504 within the budget: %s", rec.Code, took, rec.Body)
	}
	if st := s.store.Snapshot(); st.Errors != 1 || st.MemEntries != 0 {
		t.Fatalf("the timed-out run was cached? stats = %+v", st)
	}
}

// TestSweepMatchesCLIEncoding pins the anti-drift guarantee: the
// /v1/sweep response body is byte-identical to what spinsweep -json
// prints, because both are exp.Sweep piped through exp.EncodeJSON.
func TestSweepMatchesCLIEncoding(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/sweep", `{"fig":"10"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	v, err := exp.Sweep(context.Background(), "10", exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.EncodeJSON(&want, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("API bytes differ from CLI encoding:\n--- api ---\n%s\n--- cli ---\n%s", rec.Body, want.Bytes())
	}

	// And the repeat is a cache hit with the same bytes.
	again := post(t, s.Handler(), "/v1/sweep", `{"fig":"10","cycles":20000,"warmup":2000}`)
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("normalized repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(again.Body.Bytes(), want.Bytes()) {
		t.Fatal("cached sweep bytes drifted")
	}
}

// TestRequestValidation pins the 4xx surface.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxCycles: 10_000})
	h := s.Handler()

	get := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, get)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", rec.Code)
	}
	for name, body := range map[string]string{
		"malformed":     `{"topology":`,
		"unknown field": `{"topology":"mesh:4x4","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1,"bogus":1}`,
		"no traffic":    `{"topology":"mesh:4x4","rate":0.05,"cycles":1000,"seed":1}`,
		"zero rate":     `{"topology":"mesh:4x4","traffic":"uniform_random","rate":0,"cycles":1000,"seed":1}`,
		"over budget":   `{"topology":"mesh:4x4","traffic":"uniform_random","rate":0.05,"cycles":1000000,"seed":1}`,
	} {
		if rec := post(t, h, "/v1/simulate", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
	for name, body := range map[string]string{
		"unknown figure":        `{"fig":"nope"}`,
		"no measurement window": `{"fig":"8b","cycles":100,"warmup":200,"seed":1}`,
		"execution knob":        `{"fig":"10","Workers":4}`,
	} {
		if rec := post(t, h, "/v1/sweep", body); rec.Code != http.StatusBadRequest {
			t.Errorf("sweep %s: status = %d, want 400", name, rec.Code)
		}
	}
	// A request the specs reject only at construction time (unknown
	// topology name) maps to 400, not 500.
	if rec := post(t, h, "/v1/simulate", `{"topology":"klein_bottle:4","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown topology: status = %d, want 400", rec.Code)
	}
}

// TestVCCeilingsAreBadRequests: a body asking for more VCs per port or
// deeper VCs than the simulator stores is a 400 before anything is built.
// 5000 vnets once got a 200 after building a network of that many VCs per
// port, ~20 MB a router.
func TestVCCeilingsAreBadRequests(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	for name, body := range map[string]string{
		"5000 vnets": `{"topology":"mesh:4x4","routing":"xy","traffic":"uniform_random","rate":0.05,"cycles":10,"vnets":5000}`,
		"129 VCs":    `{"topology":"mesh:4x4","routing":"xy","traffic":"uniform_random","rate":0.05,"cycles":10,"vnets":5,"vcs_per_vnet":26}`,
		"deep VCs":   `{"topology":"mesh:4x4","routing":"xy","traffic":"uniform_random","rate":0.05,"cycles":10,"vc_depth":1025}`,
	} {
		if rec := post(t, h, "/v1/simulate", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
}

// TestMetricsExposition scrapes /metrics after some traffic and checks
// the text-format rendering.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	post(t, h, "/v1/simulate", smallScenario)
	post(t, h, "/v1/simulate", smallScenario) // cache hit

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != prom.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`spind_requests_total{code="200",endpoint="simulate"} 2`,
		"spind_cache_hits_total 1",
		"spind_cache_misses_total 1",
		"spind_singleflight_shared_total 0",
		"# TYPE spind_request_duration_seconds histogram",
		`spind_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 2`,
		"# TYPE spind_queue_depth gauge",
		"spind_simulation_cycles_sum 1000",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestGracefulShutdown runs the daemon on a real listener and checks the
// SIGTERM contract: http.Server.Shutdown lets the in-flight simulation
// finish and answer before the process exits.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	s := newTestServer(t, Config{})
	s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		close(started)
		time.Sleep(200 * time.Millisecond)
		return []byte(`{"slow":true}`), nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	type result struct {
		code int
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/simulate", "application/json", strings.NewReader(smallScenario))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: b}
	}()

	<-started // the request is in flight; now the SIGTERM path runs
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(context.Background()) }()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.code != http.StatusOK || !bytes.Contains(res.body, []byte("slow")) {
		t.Fatalf("in-flight request: status %d body %s", res.code, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.Close()
	// After the drain, new submissions fail closed.
	rec := post(t, s.Handler(), "/v1/simulate", smallScenario+" ")
	_ = rec // the cache may still answer; the pool is what closed
}

func mustScenario(t *testing.T, body string) harness.Scenario {
	t.Helper()
	var req SimRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return req.normalized().Scenario
}

// pinnedTraceB64 is a fixed 24-entry spintrace-v1 upload, spelled out so
// the key below does not depend on this build's gzip output.
const pinnedTraceB64 = "H4sIAAAAAAAA/wTAu63CMBiG4ff7L3Fsx8kpT8UGFIyEEAUNQoAQNWMwLc/jdrk+78fTef86tP83SCA3sHTwEihqQnbBNAzK5mhWQPWEloJeDC3VYfSAdSRsCGEGCgebAnxOFE2Qi8G0OhSCv933wy8AAP//cSIZ2YwAAAA="

// TestCheckedResponsePinned holds the bytes a client gets for a checked
// miss — the benchmark's miss_checked body, seed fixed — to their digest
// from before the invariant checker went incremental (PR 19): the verdict,
// the oracle counts and the telemetry of a clean run must not depend on
// which VCs the checker looks at. The body carries its cache key, so the
// digest is that of ResultVersion spin-results-v3.
func TestCheckedResponsePinned(t *testing.T) {
	req := SimRequest{Scenario: harness.Scenario{
		Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "uniform_random", Rate: 0.2, VCsPerVNet: 3, Seed: 1_100_000, Cycles: 1000,
	}}
	req.Check, req.Telemetry, req.Epoch = true, true, 20
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, newTestServer(t, Config{Workers: 1}).Handler(), "/v1/simulate", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	const want = "9924758bdcf9d40f3576cc7899126a70a192f17ad200e3b9af62ff5b5b7053a4"
	if got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())); got != want {
		t.Errorf("checked response digest %s, want %s", got, want)
	}
}

// TestCacheKeysPinned holds the content addresses of fixed requests to
// the values computed before the request-normalisation helpers were
// shared (PR 13): canonical bytes, and therefore every cached result,
// survive the refactor. An epoch without telemetry names the plain
// request's result. The keys are those of ResultVersion spin-results-v3;
// under spin-results-v2 the same canonical bytes gave the keys pinned
// before the sweep results became tables.
func TestCacheKeysPinned(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sim := `"topology":"mesh:4x4","routing":"xy","traffic":"uniform_random","rate":0.05,"cycles":200,"seed":1`
	for _, c := range []struct{ name, path, body, key string }{
		{"simulate", "/v1/simulate", `{` + sim + `}`,
			"041e0e50f73b18349b1c82f2f467f16e9253a3d85a61c2f5fe47ac510538aadb"},
		{"simulate+telemetry", "/v1/simulate", `{` + sim + `,"telemetry":true}`,
			"7ffaf0adf51e6e9e7d1872f807dfc15cc0459110ff508132f7aaae991750b67f"},
		{"simulate+telemetry+epoch", "/v1/simulate", `{` + sim + `,"telemetry":true,"epoch":50}`,
			"737feec6881babcbbbd8d79a443a4adac2a0517a39c8d799ac10504d0de7ffdb"},
		{"simulate+epoch only", "/v1/simulate", `{` + sim + `,"epoch":50}`,
			"041e0e50f73b18349b1c82f2f467f16e9253a3d85a61c2f5fe47ac510538aadb"},
		{"sweep", "/v1/sweep", `{"fig":"10"}`,
			"76055b8d43706ec3f26b4440ce534a551360952f5377bc317e02cbd4b17a775a"},
		{"sweep+telemetry", "/v1/sweep", `{"fig":"10","telemetry":true}`,
			"aedc0cf238fddcb212192aa2c27d5168208894ea5ff63ba922cabaa7aec08b52"},
		{"trace_b64", "/v1/simulate", `{"topology":"mesh:4x4","routing":"xy","cycles":200,"seed":1,"trace_b64":"` + pinnedTraceB64 + `"}`,
			"552480d15d1574ed5a1354d50c1a1abfecfc3d9633ea752a9c48b2d6e78b3999"},
		{"injections", "/v1/simulate", `{"topology":"mesh:4x4","routing":"xy","cycles":200,"seed":1,"injections":[{"cycle":3,"src":0,"dst":5,"length":5,"vnet":0},{"cycle":1,"src":2,"dst":9,"length":1,"vnet":0}]}`,
			"ca66eb956610d05bcbba45a5523a4a6bcaf123adad7e312dc450264a2728804c"},
	} {
		rec := post(t, s.Handler(), c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.name, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Cache-Key"); got != c.key {
			t.Errorf("%s: key %s, want %s", c.name, got, c.key)
		}
	}
}

// TestSimPoolBoundAndMetric: the server keeps the simulations its misses ran
// on — at most Workers of them, the least recently returned dropped first —
// and says on /metrics which way each miss's network came to be. A miss of a
// shape just run (another seed) rewinds; after Workers + 2 distinct shapes
// only the last Workers are still there; a failed request keeps nothing; and
// what a rewound miss answers is what a server that never saw the shape does.
func TestSimPoolBoundAndMetric(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := func(vcs int, seed int64) string {
		return fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.2,"vcs_per_vnet":%d,"cycles":500,"seed":%d}`, vcs, seed)
	}
	setups := func() (builds, rewinds float64) { return s.mSimBuilds.Value(), s.mSimRewinds.Value() }
	miss := func(b string) []byte {
		t.Helper()
		rec := post(t, s.Handler(), "/v1/simulate", b)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		return rec.Body.Bytes()
	}
	for vcs := 1; vcs <= 4; vcs++ { // Workers + 2 shapes, one after the other
		miss(body(vcs, 1))
	}
	if b, r := setups(); b != 4 || r != 0 {
		t.Fatalf("four new shapes: %v builds, %v rewinds", b, r)
	}
	rewound := miss(body(4, 2)) // the shape just run, another seed
	miss(body(3, 2))
	if b, r := setups(); b != 4 || r != 2 {
		t.Fatalf("the two most recent shapes again: %v builds, %v rewinds, want 4 and 2", b, r)
	}
	miss(body(1, 2)) // dropped when the third shape came back
	if b, r := setups(); b != 5 || r != 2 {
		t.Fatalf("the oldest shape again: %v builds, %v rewinds, want 5 and 2", b, r)
	}
	if pb, pr := s.sims.Setups(); float64(pb) != 5 || float64(pr) != 2 {
		t.Fatalf("the pool counts %d builds and %d rewinds, the metric 5 and 2", pb, pr)
	}

	// The same request on a server that has never seen the shape.
	fresh := newTestServer(t, Config{Workers: 2})
	if rec := post(t, fresh.Handler(), "/v1/simulate", body(4, 2)); !bytes.Equal(rec.Body.Bytes(), rewound) {
		t.Fatalf("a rewound miss answered differently from a fresh server:\nrewound %s\nfresh   %s", rewound, rec.Body)
	}

	// A request that fails after taking a simulation (its trace names a
	// terminal the 4x4 mesh does not have, so its Reset fails: neither a
	// build nor a rewind) hands nothing back: the shape it took (1 VC,
	// returned last) is a build again.
	bad := `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","cycles":500,"seed":3,"injections":[{"cycle":1,"src":99,"dst":1,"length":1}]}`
	_, took := s.sims.Setups()
	if rec := post(t, s.Handler(), "/v1/simulate", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad trace: status %d: %s", rec.Code, rec.Body)
	}
	if _, r := s.sims.Setups(); r != took {
		t.Fatalf("the failing request counts as a rewind: %d rewinds, want %d", r, took)
	}
	before, _ := setups() // the metric counts executed simulations: this one never ran
	miss(body(1, 4))
	if b, _ := setups(); b != before+1 {
		t.Fatalf("the miss after a failed request of its shape rewound what the failure left: %v builds, want %v", b, before+1)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	b, r := setups()
	for _, want := range []string{
		fmt.Sprintf(`spind_sim_setups_total{how="build"} %v`, b),
		fmt.Sprintf(`spind_sim_setups_total{how="rewind"} %v`, r),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: a server is
// ready until draining, and /healthz is unaffected by the drain.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	get := func(path string) (int, string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh /readyz = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	s.SetDraining(true)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q", code, body)
	}
	// Liveness is unaffected by the drain: the process must not be
	// restarted for shutting down cleanly.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz = %d", code)
	}
	s.SetDraining(false)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("undrained /readyz = %d", code)
	}
}
