package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/otrace"
)

// This file pins the alias path of the request head (readRequest): a body
// whose bytes were answered before, and whose value the memory tier still
// holds, is a hit by lookup — and the alias admits nothing the full path
// rejects and forgets what the tier forgets.

// postAs posts body under a fixed request ID, so that two error answers to
// one body compare equal down to the "(request ...)" suffix.
func postAs(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", "t-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// spansOf returns the span tree the server recorded for a response, by name.
func spansOf(t *testing.T, s *Server, rec *httptest.ResponseRecorder) map[string]otrace.SpanData {
	t.Helper()
	tid, _, ok := otrace.ParseTraceparent(rec.Header().Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q malformed", rec.Header().Get("traceparent"))
	}
	byName := map[string]otrace.SpanData{}
	for _, sp := range s.tracer.Trace(tid) {
		byName[sp.Name] = sp
	}
	return byName
}

// viaAlias reports which way a response came: by alias (the root plus one
// cache span marked via=alias, nothing decoded) or by the full path.
func viaAlias(t *testing.T, s *Server, rec *httptest.ResponseRecorder) bool {
	t.Helper()
	spans := spansOf(t, s, rec)
	_, decoded := spans["decode"]
	alias := spans["cache"].Attrs["via"] == "alias"
	if alias && (decoded || len(spans) != 2) {
		t.Fatalf("an alias hit recorded more than root -> cache: %v", spans)
	}
	return alias
}

// wantHit requires a 200 X-Cache: hit with the given bytes, by the given way.
func wantHit(t *testing.T, s *Server, rec *httptest.ResponseRecorder, want []byte, alias bool) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("status %d, X-Cache %q, want a 200 hit: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("a hit returned different bytes:\n%s\nwant\n%s", rec.Body, want)
	}
	if got := viaAlias(t, s, rec); got != alias {
		t.Fatalf("hit came by alias: %v, want %v", got, alias)
	}
}

// TestAliasAdmitsNothingTheFullPathRejects: every kind of body the head or
// the limits reject is rejected again, in the same words, on its repeat —
// no rejected (or merely tolerated) body is ever answered by alias.
func TestAliasAdmitsNothingTheFullPathRejects(t *testing.T) {
	s := newTestServer(t, Config{MaxCycles: 5000})
	oversize := `{"topology":"` + strings.Repeat("a", 1<<20) + `"}`
	for _, c := range []struct{ name, path, body, want string }{
		{"unknown field", "/v1/simulate", `{"topology":"mesh:4x4","vc_per_vnet":2}`,
			"bad request: json: unknown field \"vc_per_vnet\" (request t-1)\n"},
		{"trailing data", "/v1/simulate", smallScenario + ` {"x":1}`,
			"bad request: trailing data after the JSON document (request t-1)\n"},
		{"body over 1 MiB", "/v1/simulate", oversize,
			"bad request: http: request body too large (request t-1)\n"},
		{"sweep body over 1 MiB", "/v1/sweep", oversize,
			"bad request: exp: decode sweep request: http: request body too large (request t-1)\n"},
		{"truncated", "/v1/simulate", smallScenario[:40],
			"bad request: unexpected EOF (request t-1)\n"},
		{"cycles over the limit", "/v1/simulate", strings.Replace(smallScenario, `"cycles":1000`, `"cycles":5001`, 1),
			"bad request: cycles beyond this server's limit (5000) (request t-1)\n"},
		{"sweep cycles over the limit", "/v1/sweep", `{"fig":"10","cycles":5001}`,
			"bad request: cycles beyond this server's limit (5000) (request t-1)\n"},
		{"negative epoch", "/v1/simulate", strings.Replace(smallScenario, `"seed":1`, `"seed":1,"epoch":-1`, 1),
			"bad request: epoch must be >= 0, got -1 (request t-1)\n"},
		{"failing Validate", "/v1/simulate", strings.Replace(smallScenario, `"rate":0.05`, `"rate":-1`, 1),
			"bad request: spin: rate must be > 0, got -1 (request t-1)\n"},
	} {
		for attempt := 1; attempt <= 2; attempt++ {
			rec := postAs(t, s.Handler(), c.path, c.body)
			if rec.Code != http.StatusBadRequest || rec.Body.String() != c.want {
				t.Errorf("%s, attempt %d: %d %q, want 400 %q", c.name, attempt, rec.Code, rec.Body, c.want)
			}
			if viaAlias(t, s, rec) {
				t.Errorf("%s, attempt %d: answered by alias", c.name, attempt)
			}
		}
	}
	if st := s.Snapshot(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("rejected bodies reached the cache: %+v", st)
	}

	// A document followed by whitespace past the cap is tolerated, as it
	// always was (the decoder stops caring after the document) — but its
	// bytes were never all read, so it is never aliased.
	padded := smallScenario + strings.Repeat(" ", 1<<20)
	first := post(t, s.Handler(), "/v1/simulate", padded)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("padded body: %d %q", first.Code, first.Header().Get("X-Cache"))
	}
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", padded), first.Body.Bytes(), false)
}

// TestAliasSpellingsShareOneKey: two spellings of one request — reordered
// fields, extra whitespace — reach one key by the full path once each, and
// both are answered by alias afterwards, byte-identically.
func TestAliasSpellingsShareOneKey(t *testing.T) {
	s := newTestServer(t, Config{})
	respelled := `{ "seed": 1, "cycles": 1000,
		"rate": 0.05, "traffic": "uniform_random", "scheme": "spin",
		"routing": "min_adaptive", "topology": "mesh:4x4" }`
	first := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: %d %q: %s", first.Code, first.Header().Get("X-Cache"), first.Body)
	}
	want, key := first.Body.Bytes(), first.Header().Get("X-Cache-Key")
	// The miss attached its spelling; the other one is new to the server.
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", smallScenario), want, true)
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", respelled), want, false)
	for _, body := range []string{respelled, smallScenario, respelled} {
		rec := post(t, s.Handler(), "/v1/simulate", body)
		wantHit(t, s, rec, want, true)
		if rec.Header().Get("X-Cache-Key") != key || rec.Header().Get("X-Request-ID") == "" {
			t.Fatalf("alias hit headers %v, want key %s and a request ID", rec.Header(), key)
		}
	}
	if st := s.Snapshot(); st.Hits != 5 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 5 hits, 1 miss", st)
	}
}

// TestAliasEndpointsNeverCross: the digest is salted by endpoint, so a body
// aliased on one endpoint is a stranger to the other.
func TestAliasEndpointsNeverCross(t *testing.T) {
	s := newTestServer(t, Config{})
	const sweepBody = `{"fig":"10"}`
	sweep := post(t, s.Handler(), "/v1/sweep", sweepBody)
	sim := post(t, s.Handler(), "/v1/simulate", smallScenario)
	wantHit(t, s, post(t, s.Handler(), "/v1/sweep", sweepBody), sweep.Body.Bytes(), true)
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", smallScenario), sim.Body.Bytes(), true)
	for path, body := range map[string]string{"/v1/simulate": sweepBody, "/v1/sweep": smallScenario} {
		rec := post(t, s.Handler(), path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("%s given the other endpoint's aliased body: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// TestAliasIsPerServer: a server with a smaller cycle limit, sharing the
// cache directory of one that computed and aliased a body, rejects it.
func TestAliasIsPerServer(t *testing.T) {
	dir := t.TempDir()
	open := func(maxCycles int64) *Server {
		store, err := cache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, Config{Cache: store, MaxCycles: maxCycles})
	}
	big, small := open(0), open(500)
	first := post(t, big.Handler(), "/v1/simulate", smallScenario)
	wantHit(t, big, post(t, big.Handler(), "/v1/simulate", smallScenario), first.Body.Bytes(), true)
	for attempt := 0; attempt < 2; attempt++ {
		rec := post(t, small.Handler(), "/v1/simulate", smallScenario)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit (500)") {
			t.Fatalf("the stricter server answered %d %s", rec.Code, rec.Body)
		}
	}
}

// TestAliasResponseModes: ?stream=sse needs the decoded request and goes
// the full path every time; ?trace=server rides the alias, and its envelope
// shows the tree a repeated body gets: root -> cache, nothing else.
func TestAliasResponseModes(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(t, s.Handler(), "/v1/simulate", smallScenario)
	for attempt := 0; attempt < 2; attempt++ {
		rec := post(t, s.Handler(), "/v1/simulate?stream=sse", smallScenario)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "event: result") {
			t.Fatalf("sse: %d %s", rec.Code, rec.Body)
		}
		if spans := spansOf(t, s, rec); spans["decode"].Name == "" || spans["cache"].Attrs["via"] != "" {
			t.Fatalf("a stream took the alias: %v", spans)
		}
	}
	spans, root := traceEnvelope(t, s, "/v1/simulate", smallScenario)
	if len(spans) != 2 || spans["cache"].Parent != root.SpanID || root.Name != "simulate" {
		t.Fatalf("envelope of a repeated body: %v, want root -> cache", spans)
	}
	if a := spans["cache"].Attrs; a["via"] != "alias" || a["outcome"] != "hit" {
		t.Fatalf("cache span attrs %v, want via=alias outcome=hit", a)
	}
	if root.Attrs["request_id"] == "" || spans["cache"].Dur <= 0 || spans["cache"].Dur > root.Dur {
		t.Fatalf("root %+v, cache %+v", root, spans["cache"])
	}
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", smallScenario), first.Body.Bytes(), true)
}

// scenarioSeed is smallScenario under another seed.
func scenarioSeed(seed int) string {
	return strings.Replace(smallScenario, `"seed":1`, fmt.Sprintf(`"seed":%d`, seed), 1)
}

// TestAliasForgetsWhatTheTierForgets: after maxMem+k distinct bodies the
// first k keys are on disk only; their repeats go the full path, are served
// from disk, and alias again once promoted.
func TestAliasForgetsWhatTheTierForgets(t *testing.T) {
	const maxMem, k = 4, 3
	store, err := cache.Open(t.TempDir(), maxMem)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Cache: store})
	s.testCompute = func(_ context.Context, req SimRequest) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"seed":%d}`, req.Seed)), nil
	}
	want := func(seed int) []byte { return []byte(fmt.Sprintf(`{"seed":%d}`, seed)) }
	for seed := 0; seed < maxMem+k; seed++ {
		post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed))
	}
	for seed := k; seed < maxMem+k; seed++ { // still in memory, oldest first
		wantHit(t, s, post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed)), want(seed), true)
	}
	for seed := 0; seed < k; seed++ {
		wantHit(t, s, post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed)), want(seed), false)
		if st := s.Snapshot(); st.DiskHits != int64(seed+1) {
			t.Fatalf("seed %d: %d disk hits, want %d", seed, st.DiskHits, seed+1)
		}
		wantHit(t, s, post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed)), want(seed), true)
	}
	// Promoting the k old keys evicted the k coldest of the rest.
	wantHit(t, s, post(t, s.Handler(), "/v1/simulate", scenarioSeed(k)), want(k), false)
}

// TestAliasNeedsASuccess: a request that errors, or whose client is gone
// before the answer, leaves no alias behind — its repeat goes the full path.
func TestAliasNeedsASuccess(t *testing.T) {
	s := newTestServer(t, Config{})
	started := make(chan struct{}, 1)
	s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		switch req.Seed {
		case 1:
			return nil, errors.New("injected failure")
		case 2:
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte(`{}`), nil
	}
	if rec := post(t, s.Handler(), "/v1/simulate", scenarioSeed(1)); rec.Code != http.StatusInternalServerError {
		t.Fatalf("errored request: %d", rec.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(scenarioSeed(2))).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("cancelled request: %d", rec.Code)
	}
	// The abandoned computation unwinds on its own goroutine; a repeat that
	// arrived before it had would join it and share its cancellation.
	for deadline := time.Now().Add(5 * time.Second); s.store.InFlight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled computation never unwound")
		}
	}
	s.testCompute = func(context.Context, SimRequest) ([]byte, error) { return []byte(`{}`), nil }
	for seed := 1; seed <= 2; seed++ {
		rec := post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" || viaAlias(t, s, rec) {
			t.Fatalf("seed %d after a failure: %d %q", seed, rec.Code, rec.Header().Get("X-Cache"))
		}
		wantHit(t, s, post(t, s.Handler(), "/v1/simulate", scenarioSeed(seed)), []byte(`{}`), true)
	}
}

// TestAliasCountsLikeTheFullPath drives one mixed sequence — hot keys,
// cold keys, evictions to disk and promotions back — through two servers:
// one sees every body spelled the same (so repeats alias), the other sees
// each request padded differently (so nothing ever does). Hits, disk hits
// and misses must agree after every request: an alias hit counts and
// touches the LRU exactly as the full path's lookup.
func TestAliasCountsLikeTheFullPath(t *testing.T) {
	open := func() *Server {
		store, err := cache.Open(t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Cache: store})
		s.testCompute = func(context.Context, SimRequest) ([]byte, error) { return []byte(`{}`), nil }
		return s
	}
	aliased, full := open(), open()
	seeds := []int{0, 1, 2, 0, 0, 3, 1, 0, 4, 2, 2, 0, 5, 1, 3, 3, 0, 4, 6, 0, 1, 2, 0, 5}
	var byAlias int
	for i, seed := range seeds {
		a := post(t, aliased.Handler(), "/v1/simulate", scenarioSeed(seed))
		f := post(t, full.Handler(), "/v1/simulate", scenarioSeed(seed)+strings.Repeat(" ", i+1))
		if viaAlias(t, aliased, a) {
			byAlias++
		}
		if viaAlias(t, full, f) {
			t.Fatalf("request %d: a body never seen before was answered by alias", i)
		}
		if a.Header().Get("X-Cache") != f.Header().Get("X-Cache") {
			t.Fatalf("request %d (seed %d): X-Cache %q with aliases, %q without", i, seed, a.Header().Get("X-Cache"), f.Header().Get("X-Cache"))
		}
		if sa, sf := aliased.Snapshot(), full.Snapshot(); sa != sf {
			t.Fatalf("request %d (seed %d): stats %+v with aliases, %+v without", i, seed, sa, sf)
		}
	}
	if st := aliased.Snapshot(); byAlias == 0 || st.DiskHits == 0 || int64(byAlias) == st.Hits {
		t.Fatalf("the sequence did not mix the ways to a hit: %d by alias of %+v", byAlias, st)
	}
}

// TestAliasConcurrentClients: 8 goroutines post the same 16 bodies against
// a 4-entry memory tier (run under -race). Every answer is a 200 with that
// body's bytes, and the cache accounts for every request.
func TestAliasConcurrentClients(t *testing.T) {
	store, err := cache.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Cache: store, Workers: 4, QueueSize: 64})
	s.testCompute = func(_ context.Context, req SimRequest) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"seed":%d}`, req.Seed)), nil
	}
	const clients, rounds, bodies = 8, 25, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*bodies; i++ {
				seed := (i*7 + c) % bodies
				req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(scenarioSeed(seed)))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if want := fmt.Sprintf(`{"seed":%d}`, seed); rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("client %d, seed %d: %d %q, want 200 %q", c, seed, rec.Code, rec.Body, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := s.Snapshot(); st.Hits+st.Misses+st.Shared != clients*rounds*bodies || st.Errors != 0 {
		t.Errorf("stats %+v do not account for %d requests", st, clients*rounds*bodies)
	}
}

// TestAliasHitParity: an alias hit answers as the full path does, through
// Handler(): the same response headers in name and form, a /v1/trace
// record of the root and one cache child with every attribute, and a
// client's traceparent adopted as the root's parent.
func TestAliasHitParity(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	miss := post(t, h, "/v1/simulate", smallScenario)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first post: %d %q", miss.Code, miss.Header().Get("X-Cache"))
	}
	hit := post(t, h, "/v1/simulate", smallScenario)
	wantHit(t, s, hit, miss.Body.Bytes(), true)

	form := map[string]*regexp.Regexp{
		"X-Request-Id": regexp.MustCompile(`^[0-9a-f]+-[0-9]{6}$`),
		"Traceparent":  regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-01$`),
		"Content-Type": regexp.MustCompile(`^application/json$`),
		"X-Cache":      regexp.MustCompile(`^(miss|hit)$`),
		"X-Cache-Key":  regexp.MustCompile(`^[0-9a-f]{64}$`),
	}
	for _, rec := range []*httptest.ResponseRecorder{miss, hit} {
		if len(rec.Header()) != len(form) {
			t.Errorf("response headers %v, want exactly %d", rec.Header(), len(form))
		}
		for name, re := range form {
			if v := rec.Header()[name]; len(v) != 1 || !re.MatchString(v[0]) {
				t.Errorf("%s = %q, want one value matching %s", name, v, re)
			}
		}
	}
	if hit.Header().Get("X-Cache-Key") != miss.Header().Get("X-Cache-Key") {
		t.Errorf("alias hit key %s, full path %s", hit.Header().Get("X-Cache-Key"), miss.Header().Get("X-Cache-Key"))
	}
	if hit.Header().Get("X-Request-Id") == miss.Header().Get("X-Request-Id") {
		t.Error("two requests were given one request ID")
	}

	tid, rootID, _ := otrace.ParseTraceparent(hit.Header().Get("Traceparent"))
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/trace/"+tid, nil))
	var doc traceResponse
	if err := json.Unmarshal(get.Body.Bytes(), &doc); err != nil || get.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: %d %v", tid, get.Code, err)
	}
	if doc.TraceID != tid || len(doc.Spans) != 2 {
		t.Fatalf("trace %s holds %d spans, want root and cache: %+v", doc.TraceID, len(doc.Spans), doc.Spans)
	}
	root, cs := doc.Spans[0], doc.Spans[1]
	wantRoot := map[string]string{"request_id": hit.Header().Get("X-Request-Id"), "code": "200", "cache": "hit"}
	if root.Name != "simulate" || root.SpanID != rootID || root.Parent != "" || !maps.Equal(root.Attrs, wantRoot) {
		t.Errorf("root span %+v, want simulate %s with %v", root, rootID, wantRoot)
	}
	wantCache := map[string]string{"via": "alias", "outcome": "hit"}
	if cs.Name != "cache" || cs.Parent != rootID || cs.TraceID != tid || !maps.Equal(cs.Attrs, wantCache) {
		t.Errorf("cache span %+v, want a child of %s with %v", cs, rootID, wantCache)
	}

	const client = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(smallScenario))
	req.Header.Set("traceparent", client)
	adopted := httptest.NewRecorder()
	h.ServeHTTP(adopted, req)
	gotTrace, _, _ := otrace.ParseTraceparent(adopted.Header().Get("Traceparent"))
	spans := spansOf(t, s, adopted)
	if gotTrace != "0af7651916cd43dd8448eb211c80319c" || spans["simulate"].Parent != "b7ad6b7169203331" || spans["cache"].Attrs["via"] != "alias" {
		t.Errorf("client trace not adopted by an alias hit: trace %s, spans %+v", gotTrace, spans)
	}
}
