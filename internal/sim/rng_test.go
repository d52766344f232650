package sim

import (
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
