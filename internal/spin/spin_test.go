package spin_test

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ringScenario wires an explicit dependency ring: packet i is injected at
// terminal ring[i] with destination ring[(i+ahead)%m], table-routed along
// the ring, so after the first hop every packet sits in a ring VC
// requesting the buffer its successor holds — a genuine deadlock.
type ringScenario struct {
	net    *sim.Network
	scheme *spin.Scheme
	ring   []int
	m      int
}

// buildRing constructs the scenario on topo using ringPorts[i] = output
// port from ring[i] to ring[i+1].
func buildRing(t *testing.T, topo topology.Topology, ring []int, ringPorts []int, ahead int, cfg spin.Config, pktLen int) *ringScenario {
	t.Helper()
	m := len(ring)
	table := &routing.Table{}
	for i := 0; i < m; i++ {
		dst := ring[(i+ahead)%m]
		for j := 0; j < ahead; j++ {
			at := (i + j) % m
			if ring[at] == dst {
				break
			}
			table.Set(ring[at], dst, ringPorts[at])
		}
	}
	scheme := spin.New(cfg)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   topo,
		Routing:    table,
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		n.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+ahead)%m], Length: pktLen})
	}
	return &ringScenario{net: n, scheme: scheme, ring: ring, m: m}
}

func squareRing(t *testing.T) (*topology.Mesh, []int, []int) {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -E-> 1 -N-> 3 -W-> 2 -S-> 0
	ring := []int{0, 1, 3, 2}
	ports := []int{
		topology.MeshPort(topology.East),
		topology.MeshPort(topology.North),
		topology.MeshPort(topology.West),
		topology.MeshPort(topology.South),
	}
	return mesh, ring, ports
}

func perimeterRing(t *testing.T) (*topology.Mesh, []int, []int) {
	t.Helper()
	mesh, err := topology.NewMesh(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := []int{0, 1, 2, 5, 8, 7, 6, 3}
	e, n, w, s := topology.MeshPort(topology.East), topology.MeshPort(topology.North),
		topology.MeshPort(topology.West), topology.MeshPort(topology.South)
	ports := []int{e, e, n, n, w, w, s, s}
	return mesh, ring, ports
}

func TestRingScenarioActuallyDeadlocks(t *testing.T) {
	mesh, ring, ports := squareRing(t)
	// No scheme: the deadlock must form and persist.
	table := &routing.Table{}
	m := len(ring)
	for i := 0; i < m; i++ {
		dst := ring[(i+2)%m]
		table.Set(ring[i], dst, ports[i])
		table.Set(ring[(i+1)%m], dst, ports[(i+1)%m])
	}
	n, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: table, VCsPerVNet: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		n.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+2)%m], Length: 2})
	}
	n.Run(50)
	if !n.Deadlocked() {
		t.Fatal("ring scenario did not deadlock without a recovery scheme")
	}
	n.Run(500)
	if n.Stats().Ejected != 0 {
		t.Fatal("deadlocked packets ejected without recovery?!")
	}
	if !n.Deadlocked() {
		t.Fatal("deadlock silently dissolved")
	}
}

func TestSpinResolvesSquareRing(t *testing.T) {
	mesh, ring, ports := squareRing(t)
	sc := buildRing(t, mesh, ring, ports, 2, spin.Config{TDD: 16}, 2)
	sc.net.Run(10)
	if !sc.net.Deadlocked() {
		t.Fatal("deadlock did not form")
	}
	sc.net.Run(440)
	st := sc.net.Stats()
	if st.Ejected != 4 {
		t.Fatalf("ejected %d/4 packets after SPIN recovery", st.Ejected)
	}
	if st.Spins < 1 {
		t.Fatal("no spin recorded")
	}
	if st.Counter("recoveries") < 1 {
		t.Fatal("no recovery confirmed")
	}
	if sc.net.Deadlocked() {
		t.Fatal("oracle still reports deadlock")
	}
}

func TestSpinSquareRingSingleSpin(t *testing.T) {
	mesh, ring, ports := squareRing(t)
	sc := buildRing(t, mesh, ring, ports, 2, spin.Config{TDD: 16}, 2)
	sc.net.Run(450)
	if got := sc.net.Stats().Spins; got != 1 {
		t.Fatalf("square ring with 2-ahead destinations needs exactly 1 spin, got %d", got)
	}
}

func TestSpinMultiSpinPerimeter(t *testing.T) {
	mesh, ring, ports := perimeterRing(t)
	sc := buildRing(t, mesh, ring, ports, 3, spin.Config{TDD: 24}, 2)
	sc.net.Run(15)
	if !sc.net.Deadlocked() {
		t.Fatal("perimeter deadlock did not form")
	}
	sc.net.Run(3000)
	st := sc.net.Stats()
	if st.Ejected != 8 {
		t.Fatalf("ejected %d/8", st.Ejected)
	}
	// In-ring packets start 2 hops from their destinations: 2 spins.
	if st.Spins < 2 {
		t.Fatalf("expected >= 2 spins, got %d", st.Spins)
	}
	if st.Spins > 7 {
		t.Fatalf("theorem bound violated: %d spins > m-1 = 7", st.Spins)
	}
	if st.Counter("probe_moves_sent") < 1 {
		t.Fatal("multi-spin resolution should use probe_move")
	}
}

func TestSpinProbeMoveDisabledStillResolves(t *testing.T) {
	mesh, ring, ports := perimeterRing(t)
	sc := buildRing(t, mesh, ring, ports, 3, spin.Config{TDD: 24, DisableProbeMove: true}, 2)
	sc.net.Run(5000)
	st := sc.net.Stats()
	if st.Ejected != 8 {
		t.Fatalf("ejected %d/8 with probe_move disabled", st.Ejected)
	}
	if st.Counter("probe_moves_sent") != 0 {
		t.Fatal("probe_move sent despite being disabled")
	}
}

// TestSpinFigure8 reconstructs Fig. 5(b): a folded dependency loop whose
// crossover router freezes and spins two packets.
func TestSpinFigure8(t *testing.T) {
	mesh, err := topology.NewMesh(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, n, w, s := topology.MeshPort(topology.East), topology.MeshPort(topology.North),
		topology.MeshPort(topology.West), topology.MeshPort(topology.South)
	table := &routing.Table{}
	type pkt struct {
		src, dst int
		hops     [][2]int // (router, port)
	}
	pkts := []pkt{
		{0, 4, [][2]int{{0, e}, {1, n}}},
		{1, 5, [][2]int{{1, n}, {4, e}}},
		{4, 8, [][2]int{{4, e}, {5, n}}},
		{5, 7, [][2]int{{5, n}, {8, w}}},
		{8, 4, [][2]int{{8, w}, {7, s}}},
		{7, 3, [][2]int{{7, s}, {4, w}}},
		{4, 0, [][2]int{{4, w}, {3, s}}},
		{3, 1, [][2]int{{3, s}, {0, e}}},
	}
	for _, p := range pkts {
		for _, h := range p.hops {
			table.Set(h[0], p.dst, h[1])
		}
	}
	scheme := spin.New(spin.Config{TDD: 24})
	net, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: table, Scheme: scheme, VCsPerVNet: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		net.InjectPacket(p.src, sim.PacketSpec{Dst: p.dst, Length: 2})
	}
	net.Run(15)
	if !net.Deadlocked() {
		t.Fatal("figure-8 deadlock did not form")
	}
	net.Run(4000)
	if got := net.Stats().Ejected; got != 8 {
		t.Fatalf("ejected %d/8 in figure-8 scenario", got)
	}
	if net.Deadlocked() {
		t.Fatal("figure-8 deadlock unresolved")
	}
}

// TestSpinOverlappingLoops reconstructs Fig. 5(a): two dependency cycles
// sharing routers resolve serially via the source-id rule.
func TestSpinOverlappingLoops(t *testing.T) {
	mesh, err := topology.NewMesh(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, n, w, s := topology.MeshPort(topology.East), topology.MeshPort(topology.North),
		topology.MeshPort(topology.West), topology.MeshPort(topology.South)
	// Left square clockwise: 0-1-4-3; right square counter-clockwise:
	// 1-2-5-4 — sharing routers 1 and 4.
	table := &routing.Table{}
	type pkt struct {
		src, dst int
		hops     [][2]int
	}
	left := []pkt{
		{0, 4, [][2]int{{0, e}, {1, n}}},
		{1, 3, [][2]int{{1, n}, {4, w}}},
		{4, 0, [][2]int{{4, w}, {3, s}}},
		{3, 1, [][2]int{{3, s}, {0, e}}},
	}
	right := []pkt{
		{1, 5, [][2]int{{1, e}, {2, n}}},
		{2, 4, [][2]int{{2, n}, {5, w}}},
		{5, 1, [][2]int{{5, w}, {4, s}}},
		{4, 2, [][2]int{{4, s}, {1, e}}},
	}
	pkts := append(append([]pkt(nil), left...), right...)
	for _, p := range pkts {
		for _, h := range p.hops {
			table.Set(h[0], p.dst, h[1])
		}
	}
	scheme := spin.New(spin.Config{TDD: 24})
	net, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: table, Scheme: scheme, VCsPerVNet: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two-phase injection: each loop's packets are injected together so
	// both cycles genuinely close (sources 1 and 4 feed both loops, and
	// per-NIC serialization would otherwise let the second loop's packets
	// race through half-formed dependencies).
	for _, p := range left {
		net.InjectPacket(p.src, sim.PacketSpec{Dst: p.dst, Length: 2})
	}
	net.Run(8)
	if got := len(net.FindDeadlock()); got < 4 {
		t.Fatalf("left loop not deadlocked: oracle found %d", got)
	}
	for _, p := range right {
		net.InjectPacket(p.src, sim.PacketSpec{Dst: p.dst, Length: 2})
	}
	net.Run(10)
	if got := len(net.FindDeadlock()); got < 8 {
		t.Fatalf("expected both loops deadlocked (8 VCs), oracle found %d", got)
	}
	net.Run(6000)
	st := net.Stats()
	if st.Ejected != 8 {
		t.Fatalf("ejected %d/8 with overlapping loops", st.Ejected)
	}
	if st.Spins < 2 {
		t.Fatalf("two loops should need >= 2 spins, got %d", st.Spins)
	}
}

// TestSpinCongestionFalsePositive: heavy one-directional traffic blocks
// packets long enough to trigger probes, but with an acyclic dependency
// the probes must never confirm a deadlock.
func TestSpinCongestionFalsePositive(t *testing.T) {
	// A hotspot corner on a mesh under acyclic XY routing: link VCs block
	// for far longer than tDD where the flows merge, so probes fire — but
	// with no cyclic dependency none may ever confirm.
	mesh, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 8})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.XY{Mesh: mesh},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       3,
		Traffic:    &traffic.Synthetic{Pattern: hotspot{dst: 15}, Rate: 0.5, DataFrac: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2500)
	st := net.Stats()
	if st.Counter("probes_sent") == 0 {
		t.Fatal("congestion never triggered a probe (tighten the test)")
	}
	if st.Counter("recoveries") != 0 {
		t.Fatalf("%d recoveries confirmed on an acyclic workload", st.Counter("recoveries"))
	}
	if st.Spins != 0 {
		t.Fatalf("%d spins on an acyclic workload", st.Spins)
	}
	if !net.Drain(120000) {
		t.Fatal("congested hotspot failed to drain")
	}
}

// TestSpinAdaptiveMeshStress: fully-adaptive minimal routing with one VC
// has a cyclic CDG and deadlocks readily; with SPIN the network must stay
// live under saturation across seeds and deliver every packet intact.
func TestSpinAdaptiveMeshStress(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mesh, err := topology.NewMesh(4, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		pat, _ := traffic.ByName("transpose", mesh)
		scheme := spin.New(spin.Config{TDD: 32})
		net, err := sim.NewNetwork(sim.Config{
			Topology:   mesh,
			Routing:    &routing.MinAdaptive{Topo: mesh},
			Scheme:     scheme,
			VCsPerVNet: 1,
			Seed:       seed,
			Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		net.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
			if seen[e.Packet] {
				t.Fatalf("seed %d: packet %d delivered twice", seed, e.Packet)
			}
			seen[e.Packet] = true
		}))
		net.Run(2500)
		if !net.Drain(300000) {
			t.Fatalf("seed %d: SPIN mesh failed to drain (%d in flight, %d spins, %d recoveries)",
				seed, net.InFlight(), net.Stats().Spins, net.Stats().Counter("recoveries"))
		}
		if net.Stats().Ejected != net.Stats().Injected {
			t.Fatalf("seed %d: lost packets: %d != %d", seed, net.Stats().Ejected, net.Stats().Injected)
		}
	}
}

// TestSpinAdaptiveMeshMultiVC exercises the 3-VC configuration (probe
// forking across VCs sharing an input port).
func TestSpinAdaptiveMeshMultiVC(t *testing.T) {
	mesh, _ := topology.NewMesh(4, 4, 1)
	pat, _ := traffic.ByName("bit_complement", mesh)
	scheme := spin.New(spin.Config{TDD: 32})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     scheme,
		VCsPerVNet: 3,
		Seed:       5,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2500)
	if !net.Drain(300000) {
		t.Fatalf("3-VC SPIN mesh failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinDragonflyStress: 72-node dragonfly, fully adaptive minimal
// 1-VC routing under adversarial traffic.
func TestSpinDragonflyStress(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 64})
	pat, _ := traffic.ByName("tornado", d)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   d,
		Routing:    &routing.DflyMinimal{Dfly: d},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       6,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(3000)
	if !net.Drain(300000) {
		t.Fatalf("SPIN dragonfly failed to drain: %d in flight, %d spins", net.InFlight(), net.Stats().Spins)
	}
	if net.Stats().Ejected != net.Stats().Injected {
		t.Fatal("packet loss on dragonfly")
	}
}

// TestSpinFavorsNonMinimal: FAvORS-NMin must stay livelock-free (at most
// one misroute) and deliver everything with 1 VC.
func TestSpinFavorsNonMinimal(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 64})
	pat, _ := traffic.ByName("tornado", d)
	net, err := sim.NewNetwork(sim.Config{
		Topology:   d,
		Routing:    &routing.FAvORS{Topo: d, NonMinimal: true},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       7,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(3000)
	if !net.Drain(300000) {
		t.Fatalf("FAvORS-NMin failed to drain: %d in flight", net.InFlight())
	}
}

// TestSpinFSMWalkthrough checks the externally visible FSM progression of
// the walkthrough (Sec. IV-B): DD -> Move -> FwdProgress -> spin.
func TestSpinFSMWalkthrough(t *testing.T) {
	mesh, ring, ports := squareRing(t)
	sc := buildRing(t, mesh, ring, ports, 2, spin.Config{TDD: 16}, 2)
	sawMove, sawFwd, sawFrozen := false, false, false
	for i := 0; i < 400; i++ {
		sc.net.Step()
		for _, ag := range sc.scheme.Agents() {
			switch ag.State() {
			case "move":
				sawMove = true
			case "fwd_progress":
				sawFwd = true
			case "frozen":
				sawFrozen = true
			}
		}
	}
	if !sawMove || !sawFwd || !sawFrozen {
		t.Fatalf("FSM phases missing: move=%v fwd=%v frozen=%v", sawMove, sawFwd, sawFrozen)
	}
	if sc.net.Stats().Ejected != 4 {
		t.Fatalf("walkthrough delivered %d/4", sc.net.Stats().Ejected)
	}
}

// TestSpinIrregularTopology: SPIN is topology-agnostic — a faulted mesh
// with adaptive routing must stay deadlock-free.
func TestSpinIrregularTopology(t *testing.T) {
	rng := newSeededRand(11)
	irr, err := topology.NewIrregularMesh(5, 5, 1, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	scheme := spin.New(spin.Config{TDD: 32})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   irr,
		Routing:    &routing.MinAdaptive{Topo: irr},
		Scheme:     scheme,
		VCsPerVNet: 1,
		Seed:       8,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(25), Rate: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2500)
	if !net.Drain(300000) {
		t.Fatalf("irregular-mesh SPIN failed to drain: %d in flight", net.InFlight())
	}
}

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// hotspot sends every packet to a fixed destination terminal.
type hotspot struct{ dst int }

func (h hotspot) Dest(src int, _ *rand.Rand) int { return h.dst }
