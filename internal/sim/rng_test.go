package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/runner"
	"repro/internal/topology"
)

// TestEntitySeedMatchesRunner pins the derivation contract: EntitySeed
// and runner.SeedFor are one scheme (FNV-1a over the little-endian base
// plus the key, splitmix64-finalized), so per-entity engine streams and
// per-point sweep seeds can be reasoned about together.
func TestEntitySeedMatchesRunner(t *testing.T) {
	cases := []struct {
		base int64
		key  string
	}{
		{0, ""},
		{1, RouterKey(0)},
		{1, TerminalKey(0)},
		{42, RouterKey(1023)},
		{-7, TerminalKey(255)},
		{1 << 40, "mesh_favors_min/uniform_random@0.3"},
	}
	for _, c := range cases {
		if got, want := EntitySeed(c.base, c.key), runner.SeedFor(c.base, c.key); got != want {
			t.Errorf("EntitySeed(%d, %q) = %d, runner.SeedFor = %d", c.base, c.key, got, want)
		}
	}
}

// TestEntitySeedStable pins a few concrete derivations so an accidental
// change to the scheme (which would silently re-seed every simulation)
// fails loudly rather than just shifting results.
func TestEntitySeedStable(t *testing.T) {
	if RouterKey(3) != "R:3" || TerminalKey(3) != "T:3" {
		t.Fatalf("entity key format changed: %q %q", RouterKey(3), TerminalKey(3))
	}
	if a, b := EntitySeed(1, RouterKey(3)), EntitySeed(1, RouterKey(3)); a != b {
		t.Fatalf("EntitySeed not deterministic: %d vs %d", a, b)
	}
}

// TestEntityStreamIndependence checks the properties the determinism
// contract needs from the per-entity streams: distinct entities (and the
// same entity id in router vs terminal space) get distinct streams, and
// draws from one stream never perturb another.
func TestEntityStreamIndependence(t *testing.T) {
	const seed = 99
	same := func(a, b string) bool {
		ra, rb := newEntityRand(seed, a), newEntityRand(seed, b)
		for i := 0; i < 16; i++ {
			if ra.Uint64() != rb.Uint64() {
				return false
			}
		}
		return true
	}
	if !same(RouterKey(5), RouterKey(5)) {
		t.Error("identical keys must give identical streams")
	}
	if same(RouterKey(5), RouterKey(6)) {
		t.Error("distinct router ids share a stream")
	}
	if same(RouterKey(5), TerminalKey(5)) {
		t.Error("router and terminal streams collide for one id")
	}

	// Interleaving draws must not couple streams: the sequence entity A
	// observes is the same whether or not entity B draws in between.
	ra1 := newEntityRand(seed, RouterKey(1))
	ra2 := newEntityRand(seed, RouterKey(1))
	rb := newEntityRand(seed, RouterKey(2))
	for i := 0; i < 64; i++ {
		rb.Uint64() // unrelated draws interleaved
		if ra1.Uint64() != ra2.Uint64() {
			t.Fatalf("draw %d: stream coupled to another entity's draws", i)
		}
	}
}

// rngStubRouting satisfies RoutingAlgorithm for networks that never
// route a packet (the stream-wiring test below injects nothing).
type rngStubRouting struct{ BaseRouting }

func (rngStubRouting) Name() string { return "stub" }
func (rngStubRouting) Route(_ *Router, _ int, _ *Packet, buf []PortRequest) []PortRequest {
	return buf
}

// TestNetworkEntityStreams asserts the network wires the streams as
// documented: RouterRNG(i) is the (seed, "R:i") stream and
// TerminalRNG(i) the (seed, "T:i") stream.
func TestNetworkEntityStreams(t *testing.T) {
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 321
	n, err := NewNetwork(Config{Topology: m, Routing: rngStubRouting{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := newEntityRand(seed, RouterKey(2)).Uint64()
	if got := n.RouterRNG(2).Uint64(); got != want {
		t.Errorf("RouterRNG(2) first draw = %d, want %d", got, want)
	}
	wantT := newEntityRand(seed, TerminalKey(3)).Uint64()
	if got := n.TerminalRNG(3).Uint64(); got != wantT {
		t.Errorf("TerminalRNG(3) first draw = %d, want %d", got, wantT)
	}
}

// newEntityRand builds one entity stream from scratch: what NewNetwork's
// reseed-in-place (Network.Reset) must be indistinguishable from.
func newEntityRand(base int64, key string) *rand.Rand {
	return rand.New(&splitmix64{state: uint64(EntitySeed(base, key))})
}

// TestFloat64RedrawBound pins float64Redraw to rand.Float64's definition:
// it is the least Int63 value whose float64(v)/2^63 rounds to 1.0.
func TestFloat64RedrawBound(t *testing.T) {
	f := func(v uint64) float64 { return float64(int64(v)) / (1 << 63) }
	if f(float64Redraw) != 1 || f(float64Redraw-1) >= 1 || f(1<<63-1) != 1 {
		t.Fatalf("float64Redraw %#x is not the least value rand.Float64 redraws: f(v)=%v, f(v-1)=%v",
			uint64(float64Redraw), f(float64Redraw), f(float64Redraw-1))
	}
}

// chanceEdges are probabilities at which the integer trial is easiest to
// get wrong: none and all, out of range and NaN, the smallest a draw can
// resolve (2^-64 to 2^-62), and one ulp either side of a few values, where
// the rounding of a draw to float64 decides the answer.
func chanceEdges() []float64 {
	ps := []float64{0, 1, 1.5, -0.5, math.NaN(), math.Inf(1), 0.5, 0.25, 1.0 / 3, 0.05 / 3, 1e-4, 0x1p-63, 0x1p-62, 0x1p-64}
	for _, p := range []float64{0.5, 0.25, 1, 0x1p-10, 0.3} {
		ps = append(ps, math.Nextafter(p, 0), math.Nextafter(p, 2))
	}
	return ps
}

// TestChanceEdges checks NewChance's threshold directly: at every edge
// probability, the Int63 values around the threshold (and around where
// rand.Float64's rounding steps) pass the integer trial exactly when
// rand.Float64's own expression is below p.
func TestChanceEdges(t *testing.T) {
	f := func(v uint64) float64 { return float64(int64(v)) / (1 << 63) }
	for _, p := range chanceEdges() {
		c := NewChance(p)
		var vs []uint64
		for _, at := range []uint64{c.below, 0, 1 << 62, 1 << 53, float64Redraw} {
			for d := uint64(0); d < 5; d++ {
				vs = append(vs, at+d, at-d)
			}
		}
		for _, v := range vs {
			if v >= float64Redraw {
				continue // never reaches the compare: Hit draws again
			}
			if got, want := c.admits(v), f(v) < p; got != want {
				t.Errorf("p=%v: admits(%#x) = %v, Float64() < p reads %v (threshold %#x)", p, v, got, want, c.below)
			}
		}
	}
}

// TestChanceMatchesFloat64 runs the integer trial beside rand.Float64 on
// twin streams, 10^7 draws over a spread of probabilities: every answer
// and every stream position must agree. Misses must settle the same
// answers: its k misses then a hit are the next k+1 trials.
func TestChanceMatchesFloat64(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	ps := append(chanceEdges(), 0.9, 0.999, 0.6, 0.01)
	per := draws / len(ps)
	for i, p := range ps {
		c := NewChance(p)
		a, b := NewStream(int64(i)*7919+1), NewStream(int64(i)*7919+1)
		for j := 0; j < per; j++ {
			if got, want := a.Hit(c), b.Float64() < p; got != want {
				t.Fatalf("p=%v draw %d: Hit = %v, Float64() < p = %v", p, j, got, want)
			}
		}
		if a.src != b.src {
			t.Fatalf("p=%v: streams diverged after %d trials", p, per)
		}
		for j := 0; j < per/64; j++ {
			k := a.Misses(c, 63)
			for m := int64(0); m < k; m++ {
				if b.Float64() < p {
					t.Fatalf("p=%v: Misses settled a hit as miss %d of %d", p, m, k)
				}
			}
			if a.src != b.src {
				t.Fatalf("p=%v: Misses consumed other than its %d misses", p, k)
			}
			if k < 63 && a.Hit(c) != (b.Float64() < p) {
				t.Fatalf("p=%v: the trial after %d misses disagrees", p, k)
			}
		}
	}
}

// TestUnreadPutsDrawsBack: unread(k) returns the stream to where it was k
// draws earlier, which is what handing settled turns back relies on.
func TestUnreadPutsDrawsBack(t *testing.T) {
	s, ref := NewStream(5), NewStream(5)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	s.unread(10)
	for i := 0; i < 20; i++ {
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("draw %d differs after unread", i)
		}
	}
}

// TestHitRedraws forces the 1-in-2^54 case: a stream positioned so that its
// next draw is one rand.Float64 discards. Hit must discard it too and
// answer on the draw after, and Misses must stop before it.
func TestHitRedraws(t *testing.T) {
	// Invert splitmix64's finalizer to find the state whose next output is
	// all ones (Int63 2^63-1, which Float64 rounds to 1.0).
	inv := func(c uint64) uint64 {
		y := c
		for i := 0; i < 6; i++ {
			y *= 2 - c*y
		}
		return y
	}
	unmix := func(x uint64) uint64 {
		x ^= x>>31 ^ x>>62
		x *= inv(0x94d049bb133111eb)
		x ^= x>>27 ^ x>>54
		x *= inv(0xbf58476d1ce4e5b9)
		x ^= x>>30 ^ x>>60
		return x
	}
	state := unmix(^uint64(0)) - splitmixGamma
	probe := splitmix64{state: state}
	if probe.Uint64() != ^uint64(0) {
		t.Fatal("fixture: state does not yield the redraw value")
	}
	for _, p := range []float64{0, 0.3, 1} {
		c := NewChance(p)
		a, b := NewStream(int64(state)), NewStream(int64(state))
		if k := a.Misses(c, 10); k != 0 || a.src.state != state {
			t.Fatalf("p=%v: Misses settled %d turns across a redraw", p, k)
		}
		if got, want := a.Hit(c), b.Float64() < p; got != want || a.src != b.src {
			t.Fatalf("p=%v: Hit = %v, Float64() < p = %v; positions %#x, %#x", p, got, want, a.src.state, b.src.state)
		}
		if a.src.state != state+splitmixGamma+splitmixGamma {
			t.Fatalf("p=%v: Hit did not draw twice", p)
		}
	}
}
