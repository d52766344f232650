package bubble

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// nullRouting satisfies sim.RoutingAlgorithm for networks that never
// route a packet (the unit tests below drive agents directly).
type nullRouting struct{ sim.BaseRouting }

func (nullRouting) Name() string { return "null" }

func (nullRouting) Route(_ *sim.Router, _ int, _ *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return buf
}

// torusNet builds an idle scheme-less torus network for agent-level
// unit tests (the agents under test are constructed by hand so their
// filter decisions can be probed directly).
func torusNet(t *testing.T, x, y, vcs int) (*topology.Mesh, *sim.Network) {
	t.Helper()
	torus, err := topology.NewTorus(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology:   torus,
		Routing:    nullRouting{},
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(torus.NumTerminals()), Rate: 0},
		VCsPerVNet: vcs,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return torus, n
}

// TestRingOf pins the ring classification every bubble decision builds
// on: E/W ports belong to the X ring at the router's Y coordinate, N/S
// ports to the Y ring at its X coordinate, and everything else (terminal
// ports, out-of-range ports) to no ring.
func TestRingOf(t *testing.T) {
	torus, _ := torusNet(t, 4, 4, 1)
	b := &RingBubble{Mesh: torus}
	east := topology.MeshPort(topology.East)
	west := topology.MeshPort(topology.West)
	north := topology.MeshPort(topology.North)
	south := topology.MeshPort(topology.South)
	cases := []struct {
		name               string
		router, port       int
		wantDim, wantCoord int
	}{
		{"terminal port is no ring", 5, 0, -1, -1},
		{"out-of-range port is no ring", 5, 9, -1, -1},
		{"east at origin", 0, east, 0, 0},
		{"west shares the east ring", 0, west, 0, 0},
		{"north at origin", 0, north, 1, 0},
		{"south shares the north ring", 0, south, 1, 0},
		// Router 6 = (2, 1) on a 4x4 torus.
		{"east keys on y", 6, east, 0, 1},
		{"north keys on x", 6, north, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dim, coord := b.ringOf(tc.router, tc.port)
			if dim != tc.wantDim || coord != tc.wantCoord {
				t.Fatalf("ringOf(%d, %d) = (%d, %d), want (%d, %d)",
					tc.router, tc.port, dim, coord, tc.wantDim, tc.wantCoord)
			}
		})
	}
}

// TestRingAgentFilterSend tables the send-filter decisions on an idle
// network: intra-ring movement and empty input VCs always pass; an empty
// ring always has a spare bubble.
func TestRingAgentFilterSend(t *testing.T) {
	torus, n := torusNet(t, 4, 4, 1)
	b := &RingBubble{Mesh: torus}
	east := topology.MeshPort(topology.East)
	west := topology.MeshPort(topology.West)
	north := topology.MeshPort(topology.North)
	cases := []struct {
		name        string
		inPort, out int
		want        bool
	}{
		{"same ring continuation", east, west, true},
		{"same direction continuation", east, east, true},
		{"dimension change on empty vc", east, north, true},
		{"injection-port source on empty vc", 0, north, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := n.Router(5)
			a := &ringAgent{scheme: b, r: r}
			l, _, ok := r.Downstream(tc.out)
			if !ok {
				t.Fatalf("router 5 has no link on port %d", tc.out)
			}
			_ = l
			if got := a.FilterSend(r.VC(tc.inPort, 0), tc.out, nil); got != tc.want {
				t.Fatalf("FilterSend(in=%d, out=%d) = %v, want %v", tc.inPort, tc.out, got, tc.want)
			}
		})
	}
}

// TestRingHasSpareBubbleEmptyNetwork: with every buffer free, every ring
// has a spare bubble from every entry point, and terminal ports
// trivially pass.
func TestRingHasSpareBubbleEmptyNetwork(t *testing.T) {
	torus, n := torusNet(t, 3, 3, 1)
	b := &RingBubble{Mesh: torus}
	for r := 0; r < n.NumRouters(); r++ {
		for port := 0; port <= 4; port++ {
			if !b.ringHasSpareBubble(n, r, port, nil, 1) {
				t.Fatalf("empty network reports no spare bubble at r%d port %d", r, port)
			}
		}
	}
}

// TestRingAgentFilterInjectEmptyNetwork: injection into an idle torus is
// always allowed.
func TestRingAgentFilterInjectEmptyNetwork(t *testing.T) {
	torus, n := torusNet(t, 3, 3, 1)
	b := &RingBubble{Mesh: torus}
	for r := 0; r < n.NumRouters(); r++ {
		a := &ringAgent{scheme: b, r: n.Router(r)}
		if !a.FilterInject(n.Router(r).VC(0, 0), &sim.Packet{Length: 1}) {
			t.Fatalf("idle-network injection vetoed at router %d", r)
		}
	}
}

// TestSchemeNames pins the scheme identifiers experiment configs key on.
func TestSchemeNames(t *testing.T) {
	if got := (&RingBubble{}).Name(); got != "bubble_fc" {
		t.Fatalf("RingBubble.Name() = %q, want bubble_fc", got)
	}
	if got := (&StaticBubble{}).Name(); got != "static_bubble" {
		t.Fatalf("StaticBubble.Name() = %q, want static_bubble", got)
	}
}

// TestRingAgentQuiescent: bubble flow control is a pure send filter, so
// the agent must advertise an idle Tick to the active-set scheduler —
// this keeps bubble-protected routers out of the per-cycle worklist.
func TestRingAgentQuiescent(t *testing.T) {
	var a ringAgent
	if !a.Quiescent() {
		t.Fatal("ringAgent.Quiescent() = false, want true (Tick is a no-op)")
	}
}

// TestStaticBubbleQuiescentTracksTimers: the static-bubble agent's Tick
// advances blocked timers, so its Quiescent must be state-aware — true
// exactly while no timer is running. A Quiescent that ignored the timers
// would let recovery timeouts silently stop on idle-looking routers.
func TestStaticBubbleQuiescentTracksTimers(t *testing.T) {
	mesh, err := topology.NewMesh(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb := &StaticBubble{Mesh: mesh, TDD: 16}
	n, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.EscapeVC{Mesh: mesh, VCs: 2},
		Scheme:     sb,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(9), Rate: 0.9},
		VCsPerVNet: 2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var _ sim.Quiescer = sb.agents[0]
	running := func(a *sbAgent) int {
		k := 0
		for _, since := range a.blockedSince {
			if since != 0 {
				k++
			}
		}
		return k
	}
	sawTimer := false
	check := func() {
		for _, a := range sb.agents {
			k := running(a)
			sawTimer = sawTimer || k > 0
			if a.Quiescent() != (k == 0) || k != len(a.tracked) {
				t.Fatalf("cycle %d r%d: Quiescent=%v with %d timers running, %d tracked", n.Now(), a.r.ID, a.Quiescent(), k, len(a.tracked))
			}
		}
	}
	check()
	for i := 0; i < 1500; i++ {
		n.Step()
		check()
	}
	if !sawTimer || n.Stats().Counter("static_bubble_recoveries") == 0 {
		t.Fatalf("hard-driven mesh never ran a timer to expiry (recoveries %d)", n.Stats().Counter("static_bubble_recoveries"))
	}
	if !n.Drain(100000) {
		t.Fatalf("failed to drain: %d in flight", n.InFlight())
	}
	n.Run(2) // the Tick after the last departure retires the last timer
	check()
	for _, a := range sb.agents {
		if !a.Quiescent() {
			t.Fatalf("r%d keeps a timer on an empty network", a.r.ID)
		}
	}
}
