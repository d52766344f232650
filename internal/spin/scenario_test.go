package spin_test

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// meshPerimeterRing returns the perimeter ring of an XxY mesh with the
// ports that walk it clockwise.
func meshPerimeterRing(m *topology.Mesh) ([]int, []int) {
	e, n, w, s := topology.MeshPort(topology.East), topology.MeshPort(topology.North),
		topology.MeshPort(topology.West), topology.MeshPort(topology.South)
	var ring, ports []int
	for x := 0; x < m.X-1; x++ {
		ring = append(ring, m.RouterAt(x, 0))
		ports = append(ports, e)
	}
	for y := 0; y < m.Y-1; y++ {
		ring = append(ring, m.RouterAt(m.X-1, y))
		ports = append(ports, n)
	}
	for x := m.X - 1; x > 0; x-- {
		ring = append(ring, m.RouterAt(x, m.Y-1))
		ports = append(ports, w)
	}
	for y := m.Y - 1; y > 0; y-- {
		ring = append(ring, m.RouterAt(0, y))
		ports = append(ports, s)
	}
	return ring, ports
}

// TestSpinCountMatchesTheorem checks the distributed implementation
// against the paper's resolution bound for minimal routing (Section III): a
// symmetric ring of m routers whose in-ring packets sit d hops from their
// destinations resolves in exactly d spins, and never more than m-1.
func TestSpinCountMatchesTheorem(t *testing.T) {
	cases := []struct {
		x, y  int
		ahead int
	}{
		{2, 2, 2}, {2, 2, 3},
		{3, 3, 2}, {3, 3, 4}, {3, 3, 7},
		{4, 4, 2}, {4, 4, 5},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("mesh%dx%d_ahead%d", c.x, c.y, c.ahead), func(t *testing.T) {
			mesh, err := topology.NewMesh(c.x, c.y, 1)
			if err != nil {
				t.Fatal(err)
			}
			ring, ports := meshPerimeterRing(mesh)
			m := len(ring)
			if c.ahead >= m {
				t.Skip("ahead beyond ring length")
			}
			sc := buildRing(t, mesh, ring, ports, c.ahead, spin.Config{TDD: 24}, 2)
			sc.net.Run(12000)
			st := sc.net.Stats()
			if st.Ejected != int64(m) {
				t.Fatalf("ejected %d/%d", st.Ejected, m)
			}
			wantSpins := int64(c.ahead - 1) // in-ring packets are ahead-1 hops from home
			if st.Spins != wantSpins {
				t.Fatalf("spins = %d, want %d (theorem bound %d)", st.Spins, wantSpins, m-1)
			}
			if st.Spins > int64(m-1) {
				t.Fatalf("theorem bound violated: %d > %d", st.Spins, m-1)
			}
		})
	}
}

// TestSpinDragonflyGlobalLinkRing exercises loop-length accumulation over
// heterogeneous link latencies: a dependency ring crossing two 3-cycle
// global channels must still resolve (the move's spin cycle is computed
// from the probe's accumulated hop latency, not a hop count).
func TestSpinDragonflyGlobalLinkRing(t *testing.T) {
	d, err := topology.NewDragonfly(1, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Build a dependency ring through three groups (0 -> 1 -> 2 -> 0):
	// each segment is the pair's single global channel plus, when the
	// landing router differs from the next launch router, an intra-group
	// hop.
	globalLink := func(from, to int) (topology.Link, bool) {
		for _, l := range d.Links() {
			if d.Group(l.Src) == from && d.Group(l.Dst) == to {
				return l, true
			}
		}
		return topology.Link{}, false
	}
	a, okA := globalLink(0, 1)
	b, okB := globalLink(1, 3)
	c, okC := globalLink(3, 0)
	if !okA || !okB || !okC {
		t.Fatal("missing global channels for the 3-group ring")
	}
	var ring, ports []int
	addSeg := func(g topology.Link, nextSrc int) {
		ring = append(ring, g.Src)
		ports = append(ports, g.SrcPort)
		if g.Dst != nextSrc {
			ring = append(ring, g.Dst)
			ports = append(ports, d.LocalPortTo(g.Dst, nextSrc))
		}
	}
	addSeg(a, b.Src)
	addSeg(b, c.Src)
	addSeg(c, a.Src)
	if len(ring) < 3 {
		t.Fatalf("ring construction failed: %v", ring)
	}
	sc := buildRing(t, d, ring, ports, 2, spin.Config{TDD: 32}, 2)
	sc.net.Run(20)
	if !sc.net.Deadlocked() {
		t.Fatal("cross-group ring did not deadlock")
	}
	sc.net.Run(4000)
	if got, want := sc.net.Stats().Ejected, int64(len(ring)); got != want {
		t.Fatalf("ejected %d/%d across global links", got, want)
	}
	if sc.net.Stats().Spins < 1 {
		t.Fatal("no spin executed")
	}
}

// TestSpinKillMovesOccurUnderStress: sustained multi-loop congestion
// exercises the cancellation path (moves dropped at stale or conflicting
// routers must be followed by kill_moves, and the network must stay
// consistent).
func TestSpinKillMovesOccurUnderStress(t *testing.T) {
	mesh, _ := topology.NewMesh(5, 5, 1)
	scheme := spin.New(spin.Config{TDD: 24})
	pat, _ := traffic.ByName("uniform_random", mesh)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       31,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.45},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(12000)
	st := net.Stats()
	if st.Counter("kill_moves_sent") == 0 {
		t.Skip("no kill_move triggered at this seed; covered statistically elsewhere")
	}
	if !net.Drain(400000) {
		t.Fatalf("stress run with kill_moves failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinProbeForkingHappensWithMultiVC: with several VCs per port,
// probes must fork at input ports whose packets wait on distinct output
// ports (the rule Fig. 4's walkthrough demonstrates at node 2).
func TestSpinProbeForkingHappensWithMultiVC(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 4, 1)
	scheme := spin.New(spin.Config{TDD: 24})
	pat, _ := traffic.ByName("bit_complement", mesh)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VCsPerVNet: 3,
		Seed:       33,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(10000)
	if net.Stats().Counter("probe_forks") == 0 {
		t.Fatal("multi-VC congestion never forked a probe")
	}
	if !net.Drain(400000) {
		t.Fatal("multi-VC fork stress failed to drain")
	}
}

// TestSpinForkDisabledStillSafe: the no-fork ablation must stay correct
// (recoveries may be rarer, but nothing breaks and the network stays live
// at a load it can drain).
func TestSpinForkDisabledStillSafe(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 4, 1)
	scheme := spin.New(spin.Config{TDD: 24, DisableProbeFork: true})
	pat, _ := traffic.ByName("transpose", mesh)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VCsPerVNet: 2,
		Seed:       35,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2500)
	if !net.Drain(400000) {
		t.Fatalf("fork-disabled run failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinSMClassPriority checks the documented contention order.
func TestSpinSMClassPriority(t *testing.T) {
	order := []sim.SMKind{sim.SMProbe, sim.SMMove, sim.SMKillMove, sim.SMProbeMove}
	if sim.SMProbeMove.ClassPriority() <= sim.SMMove.ClassPriority() {
		t.Fatal("probe_move must outrank move")
	}
	if sim.SMMove.ClassPriority() != sim.SMKillMove.ClassPriority() {
		t.Fatal("move and kill_move share a class")
	}
	if sim.SMProbe.ClassPriority() >= sim.SMMove.ClassPriority() {
		t.Fatal("probe must rank below move")
	}
	for _, k := range order {
		if k.String() == "" {
			t.Fatal("missing SM kind name")
		}
	}
}

// TestSpinEpochRotation: every router eventually holds the highest
// priority, and priorities are a permutation at any cycle.
func TestSpinEpochRotation(t *testing.T) {
	mesh, _ := topology.NewMesh(3, 3, 1)
	scheme := spin.New(spin.Config{TDD: 16})
	_, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VCsPerVNet: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := mesh.NumRouters()
	epoch := int64(4 * 16)
	everTop := make([]bool, n)
	for e := int64(0); e < int64(n); e++ {
		now := e * epoch
		seen := make([]bool, n)
		for r := 0; r < n; r++ {
			pr := scheme.Priority(r, now)
			if pr < 0 || pr >= n || seen[pr] {
				t.Fatalf("priority not a permutation at epoch %d", e)
			}
			seen[pr] = true
			if pr == n-1 {
				everTop[r] = true
			}
		}
	}
	for r, ok := range everTop {
		if !ok {
			t.Fatalf("router %d never reached top priority across %d epochs", r, n)
		}
	}
}

// TestSpinRecoveryIsVNetScoped is the regression test for a bug where an
// idle VC belonging to another virtual network caused every probe to be
// dropped as "progress possible": a deadlock confined to one vnet must be
// detected and recovered regardless of other vnets' state.
func TestSpinRecoveryIsVNetScoped(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := []int{0, 1, 3, 2}
	ports := []int{
		topology.MeshPort(topology.East),
		topology.MeshPort(topology.North),
		topology.MeshPort(topology.West),
		topology.MeshPort(topology.South),
	}
	table := &routing.Table{}
	for i := range ring {
		dst := ring[(i+2)%len(ring)]
		table.Set(ring[i], dst, ports[i])
		table.Set(ring[(i+1)%len(ring)], dst, ports[(i+1)%len(ring)])
	}
	scheme := spin.New(spin.Config{TDD: 16})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    table,
		Scheme:     scheme,
		VNets:      3,
		VCsPerVNet: 1,
		Seed:       44,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The deadlock lives entirely in vnet 1; vnets 0 and 2 stay idle.
	for i := range ring {
		net.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+2)%len(ring)], Length: 2, VNet: 1})
	}
	net.Run(10)
	if !net.Deadlocked() {
		t.Fatal("vnet-1 ring did not deadlock")
	}
	net.Run(500)
	st := net.Stats()
	if st.Ejected != 4 {
		t.Fatalf("ejected %d/4: recovery failed with idle VCs in other vnets (probes=%d, drops=%v)",
			st.Ejected, st.Counter("probes_sent"), st.Counters)
	}
	if st.Spins < 1 {
		t.Fatal("no spin despite vnet-1 deadlock")
	}
}

// TestSpinTwoVNetsIndependentDeadlocks: simultaneous rings in two vnets
// over the same physical links both recover.
func TestSpinTwoVNetsIndependentDeadlocks(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2, 1)
	ring := []int{0, 1, 3, 2}
	ports := []int{
		topology.MeshPort(topology.East),
		topology.MeshPort(topology.North),
		topology.MeshPort(topology.West),
		topology.MeshPort(topology.South),
	}
	table := &routing.Table{}
	for i := range ring {
		dst := ring[(i+2)%len(ring)]
		table.Set(ring[i], dst, ports[i])
		table.Set(ring[(i+1)%len(ring)], dst, ports[(i+1)%len(ring)])
	}
	scheme := spin.New(spin.Config{TDD: 16})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    table,
		Scheme:     scheme,
		VNets:      2,
		VCsPerVNet: 1,
		Seed:       45,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vnet := 0; vnet < 2; vnet++ {
		for i := range ring {
			net.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+2)%len(ring)], Length: 2, VNet: vnet})
		}
	}
	net.Run(2000)
	if got := net.Stats().Ejected; got != 8 {
		t.Fatalf("ejected %d/8 across two vnet deadlocks", got)
	}
	if net.Stats().Spins < 2 {
		t.Fatalf("expected one spin per vnet ring, got %d", net.Stats().Spins)
	}
}

// TestSpinJellyfish: the paper's opening motivation — deadlock-free
// adaptive routing on a random datacenter graph, where no turn model or
// escape construction exists. SPIN with one VC must keep it live.
func TestSpinJellyfish(t *testing.T) {
	rng := newSeededRand(51)
	j, err := topology.NewJellyfish(16, 2, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 32})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   j,
		Routing:    &routing.MinAdaptive{Topo: j},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       52,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(j.NumTerminals()), Rate: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(4000)
	if net.Stats().Ejected == 0 {
		t.Fatal("no traffic delivered on jellyfish")
	}
	if !net.Drain(300000) {
		t.Fatalf("jellyfish failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinFatTree: indirect topologies route fine with BFS-minimal
// adaptive + SPIN (edge-spine-edge paths have huge VC-cycle potential
// through the shared spines).
func TestSpinFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(8, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 32})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   ft,
		Routing:    &routing.MinAdaptive{Topo: ft},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       53,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(ft.NumTerminals()), Rate: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(4000)
	if !net.Drain(300000) {
		t.Fatalf("fattree failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinSMLoadStaysLow guards the Fig. 8(b) claim: even under
// saturation-level adversarial load, special messages must use only a
// tiny fraction of link bandwidth.
func TestSpinSMLoadStaysLow(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 4, 1)
	scheme := spin.New(spin.Config{TDD: 128})
	pat, _ := traffic.ByName("bit_complement", mesh)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VNets:      3,
		VCsPerVNet: 1,
		Seed:       61,
		StatsStart: 500,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.5, VNets: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(8000)
	u := net.LinkUtilisation()
	if u.SMAll > 0.05 {
		t.Fatalf("SM link utilisation %.3f exceeds 5%% (probe %.3f)", u.SMAll, u.SM[0])
	}
}

// TestSpinProbeRateBounded: sustained congestion without any deadlock
// keeps probing (the watched VCs make progress, re-arming detection), but
// the rate stays bounded by one probe per router per tDD and none of the
// probes may ever confirm on an acyclic workload.
func TestSpinProbeRateBounded(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 4, 1)
	scheme := spin.New(spin.Config{TDD: 16})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.XY{Mesh: mesh}, // acyclic: probes never confirm
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       62,
		Traffic:    &traffic.Synthetic{Pattern: hotspot{dst: 15}, Rate: 0.6, DataFrac: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(4000)
	probes := net.Stats().Counter("probes_sent")
	if probes == 0 {
		t.Skip("hotspot produced no probes at this seed")
	}
	// Upper bound: every router probing on every tDD expiry.
	maxProbes := int64(net.NumRouters()) * 4000 / 16
	if probes > maxProbes {
		t.Fatalf("probe rate above the one-per-expiry bound: %d > %d", probes, maxProbes)
	}
	if net.Stats().Counter("recoveries") != 0 {
		t.Fatal("recovery confirmed on an acyclic workload")
	}
}
