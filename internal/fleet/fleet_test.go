package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fleet tests run whole clusters in one goroutine with no sockets and
// no sleeps: peer calls go through an in-memory http.RoundTripper on the
// Config.Client seam (memNet), heartbeat ages come from a stepped clock
// (Fleet.now), and gossip advances by calling round() directly. The real
// ticker loop and real listeners are exercised by internal/serve's fleet
// tests and scripts/smoke_fleet.sh.

// memCache is a map-backed Cache for tests; full makes Put fail the way
// a full disk does.
type memCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	full bool
}

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *memCache) Put(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full {
		return errors.New("write cache entry: no space left on device")
	}
	c.m[key] = val
	return nil
}

// memNet routes peer requests to the addressed node's handlers, on the
// caller's goroutine. Faults are per address (down: connection refused;
// slow: every call outlives its timeout) or per directed pair (cut).
type memNet struct {
	mu    sync.Mutex
	nodes map[string]http.Handler
	down  map[string]bool
	slow  map[string]bool
	cut   map[[2]string]bool
}

// link is one node's view of the network: the RoundTripper behind its
// Config.Client.
type link struct {
	net  *memNet
	from string
}

func (l link) RoundTrip(req *http.Request) (*http.Response, error) {
	to := req.URL.Host
	l.net.mu.Lock()
	h := l.net.nodes[to]
	refused := h == nil || l.net.down[to] || l.net.cut[[2]string{l.from, to}]
	slow := l.net.slow[to]
	l.net.mu.Unlock()
	switch {
	case refused:
		return nil, fmt.Errorf("memnet: %s -> %s: connection refused", l.from, to)
	case slow:
		// What a caller sees from a peer that answers after its deadline,
		// without waiting the deadline out.
		return nil, fmt.Errorf("memnet: %s -> %s: %w", l.from, to, context.DeadlineExceeded)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// partition cuts (or heals) both directions between a and b.
func (n *memNet) partition(a, b string, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]string{a, b}], n.cut[[2]string{b, a}] = cut, cut
}

func (n *memNet) set(faults map[string]bool, addr string, v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	faults[addr] = v
}

// clock is the stepped time source.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testNode is one fleet member on the in-memory network. Its address is
// its ID.
type testNode struct {
	fleet *Fleet
	cache *memCache
}

// cluster is a set of nodes sharing one network and one clock.
type cluster struct {
	t     *testing.T
	net   *memNet
	clk   *clock
	nodes map[string]*testNode
}

const testInterval = time.Second

func newCluster(t *testing.T, ids ...string) *cluster {
	c := &cluster{
		t:     t,
		net:   &memNet{nodes: map[string]http.Handler{}, down: map[string]bool{}, slow: map[string]bool{}, cut: map[[2]string]bool{}},
		clk:   &clock{t: time.Unix(1_700_000_000, 0)},
		nodes: map[string]*testNode{},
	}
	for _, id := range ids {
		c.boot(id, ids[0])
	}
	return c
}

// boot starts (or restarts: a fresh Fleet, a fresh incarnation, an empty
// cache) the node id, seeded with one peer address.
func (c *cluster) boot(id, seed string) *testNode {
	c.t.Helper()
	n := &testNode{cache: &memCache{m: map[string][]byte{}}}
	f, err := New(Config{
		ID:        id,
		Advertise: id,
		Peers:     []string{seed},
		Interval:  testInterval,
		Cache:     n.cache,
		Version:   "v-" + id,
		Client:    &http.Client{Transport: link{net: c.net, from: id}},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	f.now = c.clk.now
	f.members[id].Incarnation = c.clk.now().UnixNano()
	f.members[id].lastSeen = c.clk.now()
	n.fleet = f
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/gossip", f.HandleGossip)
	mux.HandleFunc("/v1/cache/", f.HandleCache)
	c.net.mu.Lock()
	c.net.nodes[id] = mux
	c.net.mu.Unlock()
	c.nodes[id] = n
	c.t.Cleanup(f.Close)
	return n
}

// step runs rounds gossip rounds: each advances the clock one interval,
// then every node that is not down gossips once, in ID order.
func (c *cluster) step(rounds int) {
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i := 0; i < rounds; i++ {
		c.clk.advance(testInterval)
		for _, id := range ids {
			if !c.net.down[id] {
				c.nodes[id].fleet.round()
			}
		}
	}
}

// view renders one node's membership as "id=state ..." in ID order.
func (c *cluster) view(id string) string {
	ms := c.nodes[id].fleet.Members()
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	var parts []string
	for _, m := range ms {
		parts = append(parts, m.ID+"="+string(m.State))
	}
	return strings.Join(parts, " ")
}

func (c *cluster) wantView(id, want string) {
	c.t.Helper()
	if got := c.view(id); got != want {
		c.t.Fatalf("%s sees [%s], want [%s]", id, got, want)
	}
}

func (c *cluster) wantRing(id string, want ...string) {
	c.t.Helper()
	if got := c.nodes[id].fleet.Status().Ring.Nodes; fmt.Sprint(got) != fmt.Sprint(want) {
		c.t.Fatalf("%s's ring = %v, want %v", id, got, want)
	}
}

// keyOwnedBy finds a key (deterministic in seed) that asker's ring
// assigns to owner.
func (c *cluster) keyOwnedBy(asker, owner string, seed int) string {
	c.t.Helper()
	for i := 0; i < 10_000; i++ {
		k := testKey(fmt.Sprint(seed, "/", i))
		if m, ok := c.nodes[asker].fleet.Owner(k); ok && m.ID == owner {
			return k
		}
	}
	c.t.Fatalf("no key of seed %d hashes to %s on %s's ring", seed, owner, asker)
	return ""
}

func testKey(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestRingDeterministicBalancedMinimalDisruption pins the three
// consistent-hashing properties the fleet depends on: every node builds
// the identical ring regardless of member-insertion order; keys spread
// across members rather than piling onto one; and removing a member
// only remaps the keys it owned.
func TestRingDeterministicBalancedMinimalDisruption(t *testing.T) {
	owner := func(r *ring, key string) (string, bool) {
		ids := r.owners(key, 1)
		return append(ids, "")[0], len(ids) == 1
	}
	r1 := newRing([]string{"a", "b", "c"})
	r2 := newRing([]string{"c", "a", "b"})
	const keys = 3000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		k := testKey(fmt.Sprint(i))
		o1, ok1 := owner(r1, k)
		o2, ok2 := owner(r2, k)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("key %d: owner depends on insertion order (%q vs %q)", i, o1, o2)
		}
		counts[o1]++
	}
	for id, c := range counts {
		if c < keys/10 {
			t.Errorf("member %s owns only %d/%d keys — ring badly unbalanced", id, c, keys)
		}
	}

	shrunk := newRing([]string{"a", "b"})
	moved := 0
	for i := 0; i < keys; i++ {
		k := testKey(fmt.Sprint(i))
		before, _ := owner(r1, k)
		after, _ := owner(shrunk, k)
		if before != "c" && before != after {
			t.Fatalf("key %d moved from surviving member %q to %q when c left", i, before, after)
		}
		if before == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("c owned nothing; the disruption check proved nothing")
	}
}

// TestRingOwnersDistinct checks owners() walks to distinct successors.
func TestRingOwnersDistinct(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	got := r.owners(testKey("x"), 3)
	if len(got) != 3 {
		t.Fatalf("owners = %v, want 3 distinct members", got)
	}
	seen := map[string]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("owners = %v contains a duplicate", got)
		}
		seen[id] = true
	}
	if more := r.owners(testKey("x"), 10); len(more) != 3 {
		t.Fatalf("owners(10) on a 3-member ring = %v, want all 3", more)
	}
}

// TestGossipConvergence boots three nodes seeded only with the first
// one's address: two rounds later every node sees all three alive (with
// their gossiped build versions), is ready, and agrees on the ring and on
// every key's owner.
func TestGossipConvergence(t *testing.T) {
	c := newCluster(t, "a", "b", "c")
	if c.nodes["b"].fleet.Ready() {
		t.Fatal("a seeded node is ready before its first gossip round")
	}
	c.step(2)
	for _, id := range []string{"a", "b", "c"} {
		c.wantView(id, "a=alive b=alive c=alive")
		c.wantRing(id, "a", "b", "c")
		if !c.nodes[id].fleet.Ready() {
			t.Fatalf("%s not ready after gossiping", id)
		}
		for _, m := range c.nodes[id].fleet.Members() {
			if m.Version != "v-"+m.ID {
				t.Fatalf("%s sees %s at version %q, want v-%s", id, m.ID, m.Version, m.ID)
			}
		}
	}
	for i := 0; i < 50; i++ {
		k := testKey(fmt.Sprint(i))
		oa, _ := c.nodes["a"].fleet.Owner(k)
		ob, _ := c.nodes["b"].fleet.Owner(k)
		oc, _ := c.nodes["c"].fleet.Owner(k)
		if oa.ID != ob.ID || ob.ID != oc.ID {
			t.Fatalf("key %d: owners disagree (%s/%s/%s)", i, oa.ID, ob.ID, oc.ID)
		}
	}
}

// TestFailureDetection kills one converged node and steps the survivors
// through the two thresholds: suspect (still on the ring, no longer
// routed to) after suspectRounds silent intervals, dead (off the ring)
// after deadRounds.
func TestFailureDetection(t *testing.T) {
	c := newCluster(t, "a", "b")
	c.step(2)
	c.wantView("a", "a=alive b=alive")

	c.net.set(c.net.down, "b", true)
	c.step(suspectRounds)
	c.wantView("a", "a=alive b=alive") // age == threshold: not yet over it
	c.step(1)
	c.wantView("a", "a=alive b=suspect")
	c.wantRing("a", "a", "b")
	c.step(deadRounds - suspectRounds)
	c.wantView("a", "a=alive b=dead")
	c.wantRing("a", "a")
	if n := c.nodes["a"].fleet.Counters().GossipErrors; n == 0 {
		t.Error("gossiping to a dead peer counted no errors")
	}
}

// TestGracefulLeave checks that Leave propagates immediately: the peer
// marks the leaver left (not suspect) and removes it from the ring
// without waiting out the suspicion window.
func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, "a", "b")
	c.step(2)
	c.nodes["b"].fleet.Leave()
	c.wantView("a", "a=alive b=left")
	c.wantRing("a", "a")
}

// TestHandleCacheRoundTrip exercises the peer cache endpoint: PUT then
// GET round-trips bytes, misses 404, malformed keys and non-JSON values
// are rejected.
func TestHandleCacheRoundTrip(t *testing.T) {
	n := newCluster(t, "solo").nodes["solo"]
	key := testKey("v")
	val := `{"answer":42}`
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.fleet.HandleCache(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	if rec := do(http.MethodGet, "/v1/cache/"+key, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET before PUT: status %d, want 404", rec.Code)
	}
	if rec := do(http.MethodPut, "/v1/cache/"+key, val); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", rec.Code)
	}
	if rec := do(http.MethodGet, "/v1/cache/"+key, ""); rec.Code != http.StatusOK || rec.Body.String() != val {
		t.Fatalf("GET after PUT: status %d body %q, want 200 %q", rec.Code, rec.Body, val)
	}
	if rec := do(http.MethodPut, "/v1/cache/"+key, `{"torn":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT invalid JSON: status %d, want 400", rec.Code)
	}
	if rec := do(http.MethodGet, "/v1/cache/deadbeef", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("GET malformed key: status %d, want 400", rec.Code)
	}
}

// TestFillAndBackfill checks the data plane between converged nodes:
// Fill pulls the owner's cached bytes (carrying the hop headers), and
// Backfill pushes a locally computed value to the owner.
func TestFillAndBackfill(t *testing.T) {
	c := newCluster(t, "a", "b")
	c.step(2)
	a, b := c.nodes["a"], c.nodes["b"]

	key := c.keyOwnedBy("b", "a", 1)
	val := []byte(`{"cached":true}`)
	a.cache.Put(key, val)
	got, peer, ok := b.fleet.Fill(context.Background(), key, Hop{ReqID: "req-1", Path: "b"})
	if !ok || peer != "a" || string(got) != string(val) {
		t.Fatalf("Fill = (%q, %q, %v), want (%q, a, true)", got, peer, ok, val)
	}
	if cnt := b.fleet.Counters(); cnt.FillHits != 1 || cnt.FillMisses != 0 {
		t.Fatalf("counters = %+v, want 1 fill hit", cnt)
	}

	bkey := c.keyOwnedBy("b", "a", 2)
	bval := []byte(`{"computed":"locally"}`)
	b.fleet.Backfill(bkey, bval)
	b.fleet.bg.Wait()
	if v, ok := a.cache.Get(bkey); !ok || string(v) != string(bval) {
		t.Fatalf("owner holds %q after the backfill, want %q", v, bval)
	}
	if cnt := b.fleet.Counters(); cnt.Backfills != 1 || cnt.BackfillErrors != 0 {
		t.Fatalf("counters = %+v, want 1 backfill", cnt)
	}
}

// TestRestartSupersedesStaleRumor checks the incarnation tie-break: a
// member that restarts (heartbeat reset, newer incarnation) replaces
// its stale pre-restart entry instead of being ignored.
func TestRestartSupersedesStaleRumor(t *testing.T) {
	f := newCluster(t, "a").nodes["a"].fleet
	addrOf := func() string {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.members["b"].Addr
	}
	f.merge([]wireMember{{ID: "b", Addr: "x:1", Incarnation: 100, Heartbeat: 500}})
	f.merge([]wireMember{{ID: "b", Addr: "x:2", Incarnation: 200, Heartbeat: 1}})
	if addrOf() != "x:2" {
		t.Fatal("restart rumor lost")
	}
	// And the stale one cannot come back.
	f.merge([]wireMember{{ID: "b", Addr: "x:1", Incarnation: 100, Heartbeat: 999}})
	if addrOf() != "x:2" {
		t.Fatal("stale incarnation overwrote the restarted member")
	}
}

// TestFleetFaults drives a converged 3-node fleet through the failures a
// deployment meets. Keys derive from the case's seed, so a failing case
// replays exactly.
func TestFleetFaults(t *testing.T) {
	for seed, tc := range []struct {
		name string
		run  func(t *testing.T, c *cluster, seed int)
	}{
		{"partition", func(t *testing.T, c *cluster, seed int) {
			// c is cut off from a and b, both directions.
			c.net.partition("a", "c", true)
			c.net.partition("b", "c", true)
			c.step(suspectRounds + 1)
			c.wantView("a", "a=alive b=alive c=suspect")
			c.wantView("c", "a=suspect b=suspect c=alive")
			// A suspect still owns its keys (suspicion is often transient)
			// but is not asked for them: the fill goes to nobody, which is
			// the serving layer's cue to compute locally and backfill.
			key := c.keyOwnedBy("a", "c", seed)
			if _, _, ok := c.nodes["a"].fleet.Fill(context.Background(), key, Hop{}); ok {
				t.Fatal("fill hit across a partition")
			}
			if cnt := c.nodes["a"].fleet.Counters(); cnt.FillErrors != 0 || cnt.FillMisses != 1 {
				t.Fatalf("counters = %+v, want the suspect skipped and one miss from its alive successor", cnt)
			}
			// Healed before the death threshold: the suspect's own reply
			// refutes the suspicion within a round, and nothing moved.
			c.net.partition("a", "c", false)
			c.net.partition("b", "c", false)
			c.step(1)
			for _, id := range []string{"a", "b", "c"} {
				c.wantView(id, "a=alive b=alive c=alive")
				c.wantRing(id, "a", "b", "c")
			}
			// Cut again and left to die: each side drops the other from its
			// ring and the two survivors still agree on every owner.
			c.net.partition("a", "c", true)
			c.net.partition("b", "c", true)
			c.step(deadRounds + 1)
			c.wantView("a", "a=alive b=alive c=dead")
			c.wantRing("a", "a", "b")
			c.wantRing("b", "a", "b")
			c.wantRing("c", "c")
			for i := 0; i < 50; i++ {
				k := testKey(fmt.Sprint(seed, "/agree/", i))
				oa, _ := c.nodes["a"].fleet.Owner(k)
				ob, _ := c.nodes["b"].fleet.Owner(k)
				if oa.ID != ob.ID || oa.ID == "c" {
					t.Fatalf("key %d: owners %s/%s after c's death", i, oa.ID, ob.ID)
				}
			}
		}},
		{"slow_peer", func(t *testing.T, c *cluster, seed int) {
			// The owner answers nothing within any timeout, but gossip has
			// not noticed yet: the fill times out (and its alive successor
			// misses), the proxy times out, the backfill times out — each
			// counted against the right series, none fatal.
			key := c.keyOwnedBy("a", "b", seed)
			owner, _ := c.nodes["a"].fleet.Owner(key)
			c.net.set(c.net.slow, "b", true)
			f := c.nodes["a"].fleet
			if _, _, ok := f.Fill(context.Background(), key, Hop{}); ok {
				t.Fatal("fill hit from a peer that never answers")
			}
			if _, _, err := f.Proxy(context.Background(), owner, ProxySpec{Path: "/v1/simulate", Body: []byte(`{}`)}, Hop{}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("proxy to a slow owner: err = %v, want a deadline error", err)
			}
			f.Fallback()
			f.Backfill(key, []byte(`{"computed":"locally"}`))
			f.bg.Wait()
			want := Counters{GossipRounds: 2, FillErrors: 1, FillMisses: 1, ProxyErrors: 1, Fallbacks: 1, BackfillErrors: 1}
			if cnt := f.Counters(); cnt != want {
				t.Fatalf("counters = %+v, want %+v", cnt, want)
			}
		}},
		{"stale_incarnation", func(t *testing.T, c *cluster, seed int) {
			// b restarts while c is cut off from it, so c keeps b's
			// pre-restart entry — higher heartbeat, older incarnation — and
			// gossips that stale rumor to a for a while.
			c.net.partition("b", "c", true)
			c.step(2)
			old := c.nodes["b"].fleet
			c.boot("b", "a")
			if inc := c.nodes["b"].fleet.members["b"].Incarnation; inc <= old.members["b"].Incarnation {
				t.Fatalf("restart did not advance the incarnation (%d <= %d)", inc, old.members["b"].Incarnation)
			}
			c.step(2)
			incAt := func(id string) int64 {
				f := c.nodes[id].fleet
				f.mu.Lock()
				defer f.mu.Unlock()
				return f.members["b"].Incarnation
			}
			want := incAt("b")
			if got := incAt("a"); got != want {
				t.Fatalf("a holds b's incarnation %d, want the restarted %d: the stale rumor won", got, want)
			}
			// c learns the new incarnation from a even though it cannot
			// reach b, and b's restart cost it nothing but its cache.
			if got := incAt("c"); got != want {
				t.Fatalf("c holds b's incarnation %d, want %d via a", got, want)
			}
			c.wantView("a", "a=alive b=alive c=alive")
			c.wantRing("a", "a", "b", "c")
		}},
		{"disk_full", func(t *testing.T, c *cluster, seed int) {
			// The owner's cache cannot store the backfilled value: the push
			// is counted as failed, nothing torn is left behind, and the
			// owner keeps answering.
			key := c.keyOwnedBy("a", "b", seed)
			c.nodes["b"].cache.full = true
			f := c.nodes["a"].fleet
			f.Backfill(key, []byte(`{"computed":"locally"}`))
			f.bg.Wait()
			if cnt := f.Counters(); cnt.BackfillErrors != 1 || cnt.Backfills != 0 {
				t.Fatalf("counters = %+v, want 1 backfill error", cnt)
			}
			if _, _, ok := f.Fill(context.Background(), key, Hop{}); ok {
				t.Fatal("a failed backfill left an entry on the owner")
			}
			if cnt := f.Counters(); cnt.FillMisses != 2 || cnt.FillErrors != 0 {
				t.Fatalf("counters = %+v, want clean misses from the owner and its successor", cnt)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, "a", "b", "c")
			c.step(2)
			tc.run(t, c, seed)
		})
	}
}
