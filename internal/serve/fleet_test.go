package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/otrace"
)

// syncBuffer is a log sink safe to read while the server writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// fleetNode is one full spind node — cache, fleet, server — on a real
// loopback listener, the same wiring cmd/spind performs.
type fleetNode struct {
	id       string
	addr     string
	store    *cache.Store
	f        *fleet.Fleet
	s        *Server
	hs       *http.Server
	logs     *syncBuffer
	computes atomic.Int64
}

// newFleetNode boots a node; peers seeds its membership. Simulations
// are stubbed (testCompute) so fleet tests measure routing, not the
// simulator.
func newFleetNode(t *testing.T, id string, peers []string, interval time.Duration) *fleetNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := &fleetNode{id: id, addr: ln.Addr().String(), store: store, logs: &syncBuffer{}}
	n.f, err = fleet.New(fleet.Config{
		ID:        id,
		Advertise: n.addr,
		Peers:     peers,
		Interval:  interval,
		Cache:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.s, err = New(Config{Cache: store, Workers: 2, Fleet: n.f, Log: slog.New(slog.NewJSONHandler(n.logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	n.s.testCompute = func(ctx context.Context, req SimRequest) ([]byte, error) {
		n.computes.Add(1)
		return []byte(fmt.Sprintf(`{"computed_on":%q,"seed":%d}`, id, req.Seed)), nil
	}
	n.hs = &http.Server{Handler: n.s.Handler()}
	go n.hs.Serve(ln)
	n.f.Start()
	t.Cleanup(func() {
		n.hs.Close()
		n.s.Close()
		n.f.Close()
	})
	return n
}

// converge waits until every node sees every other node alive and
// reports ready.
func converge(t *testing.T, nodes ...*fleetNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			ms := n.f.Members()
			if len(ms) != len(nodes) || !n.f.Ready() {
				ok = false
				break
			}
			for _, m := range ms {
				if m.State != fleet.StateAlive {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// simBody builds a distinct valid scenario per seed.
func simBody(seed int) string {
	return fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":%d}`, seed)
}

// simKey is the content address the fleet routes on for simBody(seed).
func simKey(t *testing.T, seed int) string {
	t.Helper()
	var req SimRequest
	if err := json.Unmarshal([]byte(simBody(seed)), &req); err != nil {
		t.Fatal(err)
	}
	return cache.KeyOf(ResultVersion+"/simulate", req.normalized().canonical())
}

// postNode POSTs a body to one node over the real listener.
func postNode(t *testing.T, n *fleetNode, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+n.addr+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// pickSeed finds a seed whose key is owned by wantOwner according to
// asker's ring view.
func pickSeed(t *testing.T, asker *fleetNode, wantOwner string) int {
	t.Helper()
	for seed := 1; seed < 10_000; seed++ {
		if m, ok := asker.f.Owner(simKey(t, seed)); ok && m.ID == wantOwner {
			return seed
		}
	}
	t.Fatal("no seed hashed to the wanted owner")
	return 0
}

// TestFleetProxyToOwner pins the ownership data plane: a request landing
// on a non-owner is forwarded to the key's ring owner, computes exactly
// once fleet-wide, and both nodes answer repeats from cache.
func TestFleetProxyToOwner(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	seed := pickSeed(t, a, "b") // b owns it; a must forward
	resp, body := postNode(t, a, "/v1/simulate", simBody(seed), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet"); got != "proxy:b" {
		t.Fatalf("X-Fleet = %q, want proxy:b", got)
	}
	if !bytes.Contains(body, []byte(`"computed_on":"b"`)) {
		t.Fatalf("computed on the wrong node: %s", body)
	}
	if a.computes.Load() != 0 || b.computes.Load() != 1 {
		t.Fatalf("computes a=%d b=%d, want 0/1", a.computes.Load(), b.computes.Load())
	}

	// The proxied result was cached on both sides: repeats hit locally
	// everywhere, and nothing recomputes.
	for _, n := range []*fleetNode{a, b} {
		resp, again := postNode(t, n, "/v1/simulate", simBody(seed), nil)
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("repeat on %s: X-Cache = %q, want hit", n.id, got)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("repeat on %s returned different bytes", n.id)
		}
	}
	if a.computes.Load()+b.computes.Load() != 1 {
		t.Fatal("repeat requests recomputed")
	}
}

// TestFleetFillFromPeer pins the cache-fill path: when the owner already
// holds the bytes, a non-owner serves them without computing anything.
func TestFleetFillFromPeer(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	seed := pickSeed(t, a, "b")
	key := simKey(t, seed)
	val := []byte(`{"precomputed":true}`)
	if err := b.store.Put(key, val); err != nil {
		t.Fatal(err)
	}
	resp, body := postNode(t, a, "/v1/simulate", simBody(seed), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet"); got != "fill:b" {
		t.Fatalf("X-Fleet = %q, want fill:b", got)
	}
	if !bytes.Equal(body, val) {
		t.Fatalf("fill returned %s, want the owner's exact bytes", body)
	}
	if a.computes.Load() != 0 && b.computes.Load() != 0 {
		t.Fatal("a fill hit ran a simulation")
	}
}

// TestFleetOwnerDownFallback pins availability: when the owner is
// unreachable (but not yet suspected), the receiving node computes
// locally instead of failing the request.
func TestFleetOwnerDownFallback(t *testing.T) {
	// A long interval keeps b "alive" in a's view for the whole test, so
	// the request exercises the fill-error → proxy-error → local path.
	a := newFleetNode(t, "a", nil, 500*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 500*time.Millisecond)
	converge(t, a, b)

	seed := pickSeed(t, a, "b")
	b.hs.Close() // SIGKILL stand-in: the port stops answering
	resp, body := postNode(t, a, "/v1/simulate", simBody(seed), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet"); got != "fallback" {
		t.Fatalf("X-Fleet = %q, want fallback", got)
	}
	if !bytes.Contains(body, []byte(`"computed_on":"a"`)) {
		t.Fatalf("fallback did not compute locally: %s", body)
	}
	if a.computes.Load() != 1 {
		t.Fatalf("a computed %d times, want 1", a.computes.Load())
	}
}

// TestFleetStreamedLeadIsLocal: a streamed request landing on a non-owner
// computes here — its samples only exist where the simulation runs — but
// that is a choice, not a failure: with the owner alive it is labelled
// "local", spind_fleet_local_fallbacks_total ("owner was unreachable")
// stays 0, and the result is still backfilled to the owner.
func TestFleetStreamedLeadIsLocal(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	seed := pickSeed(t, a, "b")
	resp, body := postNode(t, a, "/v1/simulate?stream=sse", simBody(seed), nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"computed_on":"a"`)) {
		t.Fatalf("streamed request did not lead locally: status %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(a.logs.String(), `"endpoint":"simulate"`) {
		if time.Now().After(deadline) {
			t.Fatal("request never logged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if logs := a.logs.String(); !strings.Contains(logs, `"fleet":"local"`) {
		t.Errorf("streamed lead not logged fleet=local:\n%s", logs)
	}
	if n := a.f.Counters().Fallbacks; n != 0 {
		t.Errorf("local_fallbacks = %d with the owner alive, want 0", n)
	}
	for {
		if v, ok := b.store.Get(simKey(t, seed)); ok {
			if !bytes.Contains(v, []byte(`"computed_on":"a"`)) {
				t.Fatalf("owner holds %s, want a's backfilled bytes", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("streamed local lead was never backfilled to the owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetRequestIDPropagation pins the observability satellite: a
// client-supplied X-Request-ID survives the proxy hop, the response
// reports the full node path, and the same ID is greppable in both
// nodes' request logs.
func TestFleetRequestIDPropagation(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	const reqID = "e2e-corr-0042"
	seed := pickSeed(t, a, "b")
	resp, body := postNode(t, a, "/v1/simulate", simBody(seed), map[string]string{"X-Request-ID": reqID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("X-Request-ID = %q, want %q (ID must survive the hop)", got, reqID)
	}
	if got := resp.Header.Get("X-Fleet-Path"); got != "a>b" {
		t.Fatalf("X-Fleet-Path = %q, want a>b", got)
	}
	// The trace ID travels with the request too: the response names the
	// trace, and both nodes' structured logs carry it.
	tid, _, ok := otrace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q is malformed", resp.Header.Get("traceparent"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		la, lb := a.logs.String(), b.logs.String()
		if strings.Contains(la, `"id":"`+reqID+`"`) && strings.Contains(lb, `"id":"`+reqID+`"`) {
			if !strings.Contains(lb, `"path":"a>b"`) {
				t.Fatalf("owner log lacks the hop path:\n%s", lb)
			}
			if !strings.Contains(la, `"trace":"`+tid+`"`) || !strings.Contains(lb, `"trace":"`+tid+`"`) {
				t.Fatalf("trace ID %s not in both logs:\n--- a ---\n%s\n--- b ---\n%s", tid, la, lb)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request ID not in both logs:\n--- a ---\n%s\n--- b ---\n%s", la, lb)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetAdminEndpoint sanity-checks GET /v1/fleet: members, ring, and
// counters visible to operators.
func TestFleetAdminEndpoint(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	resp, err := http.Get("http://" + a.addr + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status fleet.AdminStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Self != "a" || !status.Ready || len(status.Members) != 2 || len(status.Ring.Nodes) != 2 {
		t.Fatalf("admin status = %+v", status)
	}
}

// TestFleetMetricsExposition checks the per-peer fleet series render on
// /metrics after a proxied request.
func TestFleetMetricsExposition(t *testing.T) {
	a := newFleetNode(t, "a", nil, 25*time.Millisecond)
	b := newFleetNode(t, "b", []string{a.addr}, 25*time.Millisecond)
	converge(t, a, b)

	seed := pickSeed(t, a, "b")
	postNode(t, a, "/v1/simulate", simBody(seed), nil)
	resp, err := http.Get("http://" + a.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`spind_fleet_members{state="alive"} 2`,
		"spind_fleet_ring_nodes 2",
		"spind_fleet_ready 1",
		`spind_fleet_proxied_total{peer="b"} 1`,
		"spind_fleet_gossip_rounds_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: a fleetless
// server is ready until draining; a fleet server is unready before its
// first gossip round.
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

	// A fleet member with peers is unready until gossip has run once.
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{ID: "x", Advertise: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	fs := newTestServer(t, Config{Cache: store, Fleet: f})
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	fs.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "waiting-for-gossip") {
		t.Fatalf("pre-gossip /readyz = %d %q", rec.Code, rec.Body.String())
	}
}
