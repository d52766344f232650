package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func run(t *testing.T, topo topology.Topology, alg sim.RoutingAlgorithm, vcs int, pattern string, rate float64, cycles int64) *sim.Network {
	t.Helper()
	pat, err := traffic.ByName(pattern, topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology:   topo,
		Routing:    alg,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: rate},
		VCsPerVNet: vcs,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cycles)
	return n
}

func TestXYTakesManhattanPaths(t *testing.T) {
	m, _ := topology.NewMesh(6, 6, 1)
	n := run(t, m, &routing.XY{Mesh: m}, 1, "uniform_random", 0.1, 3000)
	if !n.Drain(20000) {
		t.Fatal("xy failed to drain")
	}
	if n.Stats().MisrouteSum != 0 {
		t.Fatalf("XY misrouted %d times", n.Stats().MisrouteSum)
	}
	// Average hops under uniform random on a 6x6 mesh is ~4 (2*(k+1)/3-ish
	// per dimension).
	if h := n.Stats().AvgHops(); h < 3 || h > 5 {
		t.Fatalf("avg hops %.2f out of range", h)
	}
}

func TestWestFirstNeverTurnsToWest(t *testing.T) {
	m, _ := topology.NewMesh(6, 6, 1)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.WestFirst{Mesh: m},
		VCsPerVNet: 1,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A packet destined east must never use a west port; verify the port
	// helper directly over all pairs.
	for cur := 0; cur < 36; cur++ {
		for dst := 0; dst < 36; dst++ {
			if cur == dst {
				continue
			}
			cx, _ := m.Coords(cur)
			dx, _ := m.Coords(dst)
			ports := routing.WestFirstPorts(m, cur, dst, nil)
			if len(ports) == 0 {
				t.Fatalf("no west-first ports %d->%d", cur, dst)
			}
			for _, p := range ports {
				if dx >= cx && p == topology.MeshPort(topology.West) {
					t.Fatalf("west turn offered for eastbound packet %d->%d", cur, dst)
				}
			}
			if dx < cx && (len(ports) != 1 || ports[0] != topology.MeshPort(topology.West)) {
				t.Fatalf("westbound packet %d->%d must go west first, got %v", cur, dst, ports)
			}
		}
	}
	_ = n
}

func TestMinAdaptiveStaysMinimal(t *testing.T) {
	m, _ := topology.NewMesh(6, 6, 1)
	n := run(t, m, &routing.MinAdaptive{Topo: m}, 2, "transpose", 0.15, 3000)
	if !n.Drain(30000) {
		t.Skip("low-rate adaptive run did not fully drain (rare cycle without recovery scheme)")
	}
	if n.Stats().MisrouteSum != 0 {
		t.Fatalf("minimal adaptive misrouted %d times", n.Stats().MisrouteSum)
	}
}

func TestEscapeVCDeadlockFreeUnderStress(t *testing.T) {
	m, _ := topology.NewMesh(5, 5, 1)
	n := run(t, m, &routing.EscapeVC{Mesh: m, VCs: 2}, 2, "transpose", 0.6, 4000)
	if !n.Drain(200000) {
		t.Fatalf("escape-vc mesh failed to drain: %d in flight", n.InFlight())
	}
}

func TestUGALLadderDeliversWithoutRecovery(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := run(t, d, &routing.UGAL{Dfly: d, VCLadder: true, VCs: 3}, 3, "uniform_random", 0.3, 4000)
	if !n.Drain(100000) {
		t.Fatalf("UGAL-ladder dragonfly failed to drain: %d in flight", n.InFlight())
	}
	if n.Stats().Ejected == 0 {
		t.Fatal("no deliveries")
	}
}

func TestUGALGoesNonMinimalUnderAdversarialLoad(t *testing.T) {
	d, _ := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	n := run(t, d, &routing.UGAL{Dfly: d, VCLadder: true, VCs: 3}, 3, "tornado", 0.5, 6000)
	if n.Stats().MisrouteSum == 0 {
		t.Fatal("UGAL never took a Valiant path under tornado traffic")
	}
	if !n.Drain(200000) {
		t.Fatal("UGAL tornado run failed to drain")
	}
}

func TestFAvORSMisroutesAtMostOnce(t *testing.T) {
	m, _ := topology.NewMesh(5, 5, 1)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.FAvORS{Topo: m, NonMinimal: true},
		VCsPerVNet: 1,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxMis := 0
	n.SetEjectHook(func(p *sim.Packet) {
		if p.Misroutes > maxMis {
			maxMis = p.Misroutes
		}
	})
	pat := traffic.Uniform(25)
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 4000; c++ {
		if c < 2000 {
			for src := 0; src < 25; src++ {
				if rng.Float64() < 0.1 {
					d := pat.Dest(src, rng)
					n.InjectPacket(src, sim.PacketSpec{Dst: d, Length: 1})
				}
			}
		}
		n.Step()
	}
	// One Valiant detour adds at most a bounded number of non-reducing
	// hops: each phase is minimal, so misroutes only accrue while heading
	// to the intermediate router.
	if maxMis > 8 {
		t.Fatalf("packet misrouted %d times; FAvORS must bound detours", maxMis)
	}
}

func TestTableRoutingPanicsOnMissingEntry(t *testing.T) {
	m, _ := topology.NewMesh(2, 2, 1)
	tab := &routing.Table{}
	tab.Set(0, 3, topology.MeshPort(topology.East))
	n, err := sim.NewNetwork(sim.Config{Topology: m, Routing: tab, VCsPerVNet: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing table entry should panic")
		}
	}()
	n.InjectPacket(1, sim.PacketSpec{Dst: 2, Length: 1})
	n.Run(10)
}

func TestDflyMinimalCanonicalNeverTwoGlobals(t *testing.T) {
	d, _ := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   d,
		Routing:    &routing.DflyMinimal{Dfly: d, VCLadder: true, VCs: 2},
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(d.NumTerminals()), Rate: 0.15},
		VCsPerVNet: 2,
		Seed:       12,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetEjectHook(func(p *sim.Packet) {
		if p.GlobalHops > 1 {
			t.Fatalf("canonical minimal packet crossed %d global links", p.GlobalHops)
		}
	})
	n.Run(4000)
	if !n.Drain(50000) {
		t.Fatal("canonical dragonfly failed to drain")
	}
}

// TestLadderBelowFloorDeadlocks documents the VC floors of the root
// package's routing table by bypassing them: a ladder with fewer VCs than
// its paths have global hops clamps the extra hops onto its top VC, and the
// network deadlocks — minimal routing at 1 VC, UGAL (whose Valiant detour
// crosses two global channels) at 2.
func TestLadderBelowFloorDeadlocks(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alg     sim.RoutingAlgorithm
		vcs     int
		pattern string
	}{
		{&routing.DflyMinimal{Dfly: d, VCLadder: true, VCs: 1}, 1, "uniform_random"},
		{&routing.UGAL{Dfly: d, VCLadder: true, VCs: 2}, 2, "tornado"},
	} {
		n := run(t, d, tc.alg, tc.vcs, tc.pattern, 0.5, 0)
		for i := 0; i < 40 && !n.Deadlocked(); i++ {
			n.Run(250)
		}
		if !n.Deadlocked() {
			t.Errorf("%s at %d VC(s) ran 10000 cycles of %s without deadlocking", tc.alg.Name(), tc.vcs, tc.pattern)
		}
		t.Logf("%s at %d VC(s): deadlocked by cycle %d", tc.alg.Name(), tc.vcs, n.Now())
	}
}
