package sim_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func meshNet(t *testing.T, x, y, vcs int, rate float64, pattern string, seed int64) *sim.Network {
	t.Helper()
	m, err := topology.NewMesh(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.ByName(pattern, m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: rate},
		VCsPerVNet: vcs,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestXYMeshDeliversAllPackets(t *testing.T) {
	n := meshNet(t, 4, 4, 2, 0.1, "uniform_random", 1)
	n.Run(2000)
	if n.Stats().Injected == 0 {
		t.Fatal("no packets injected")
	}
	if !n.Drain(5000) {
		t.Fatalf("network failed to drain: %d in flight, %d queued", n.InFlight(), n.QueuedPackets())
	}
	if n.Stats().Ejected != n.Stats().Injected {
		t.Fatalf("ejected %d != injected %d", n.Stats().Ejected, n.Stats().Injected)
	}
	if n.Stats().EjectedFlits != n.Stats().InjectedFlits {
		t.Fatalf("flit conservation broken: %d in, %d out", n.Stats().InjectedFlits, n.Stats().EjectedFlits)
	}
}

func TestZeroLoadLatencyMatchesHops(t *testing.T) {
	// A single 1-flit packet from corner to corner of a 4x4 mesh under XY:
	// 6 router-to-router hops. Count cycles from generation to ejection.
	m, _ := topology.NewMesh(4, 4, 1)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		VCsPerVNet: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := n.InjectPacket(0, sim.PacketSpec{Dst: 15, Length: 1})
	n.Run(100)
	if n.Stats().Ejected != 1 {
		t.Fatal("packet not delivered")
	}
	if got.Hops != 6 {
		t.Fatalf("hops = %d, want 6", got.Hops)
	}
	lat := got.EjectCycle - got.GenCycle
	// Each hop costs 1 link cycle + 1 router pipeline cycle.
	if lat < 12 || lat > 18 {
		t.Fatalf("zero-load latency = %d, outside sane range", lat)
	}
	if got.Misroutes != 0 {
		t.Fatalf("XY produced %d misroutes", got.Misroutes)
	}
}

func TestMultiFlitPacketsStayOrdered(t *testing.T) {
	m, _ := topology.NewMesh(4, 1, 1)
	n, _ := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		VCsPerVNet: 1,
	})
	delivered := 0
	n.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(sim.Event) { delivered++ }))
	for i := 0; i < 5; i++ {
		n.InjectPacket(0, sim.PacketSpec{Dst: 3, Length: 5})
	}
	n.Run(400)
	if delivered != 5 {
		t.Fatalf("delivered %d/5 packets", delivered)
	}
}

func TestHighLoadXYStillDrains(t *testing.T) {
	// XY routing is deadlock-free; even saturated it must drain.
	n := meshNet(t, 4, 4, 1, 0.8, "bit_complement", 3)
	n.Run(3000)
	if !n.Drain(20000) {
		t.Fatalf("XY mesh failed to drain under saturation: %d in flight", n.InFlight())
	}
}

func TestXYNeverDeadlocks(t *testing.T) {
	n := meshNet(t, 4, 4, 1, 0.9, "transpose", 4)
	for i := 0; i < 3000; i++ {
		n.Step()
		if i%500 == 499 && n.Deadlocked() {
			t.Fatalf("oracle reports deadlock under XY at cycle %d", i)
		}
	}
}

func TestDragonflyMinimalDelivers(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology:   d,
		Routing:    &routing.DflyMinimal{Dfly: d, VCLadder: true, VCs: 2},
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(d.NumTerminals()), Rate: 0.1},
		VCsPerVNet: 2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	if n.Stats().Ejected == 0 {
		t.Fatal("no packets delivered on dragonfly")
	}
	if !n.Drain(10000) {
		t.Fatalf("dragonfly failed to drain: %d in flight", n.InFlight())
	}
	if n.Stats().AvgHops() > 3.01 {
		t.Fatalf("minimal dragonfly avg hops = %f > 3", n.Stats().AvgHops())
	}
}

func TestWestFirstMeshDrains(t *testing.T) {
	m, _ := topology.NewMesh(4, 4, 1)
	pat, _ := traffic.ByName("transpose", m)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.WestFirst{Mesh: m},
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.6},
		VCsPerVNet: 1,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3000)
	if !n.Drain(20000) {
		t.Fatalf("west-first failed to drain: %d in flight", n.InFlight())
	}
}

func TestVNetIsolation(t *testing.T) {
	m, _ := topology.NewMesh(4, 4, 1)
	pat := traffic.Uniform(16)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.3, VNets: 3},
		VNets:      3,
		VCsPerVNet: 1,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	if !n.Drain(10000) {
		t.Fatal("3-vnet run failed to drain")
	}
	if n.Stats().Ejected == 0 {
		t.Fatal("no traffic in vnet run")
	}
}

func TestConfigValidation(t *testing.T) {
	m, _ := topology.NewMesh(4, 4, 1)
	if _, err := sim.NewNetwork(sim.Config{Routing: &routing.XY{Mesh: m}}); err == nil {
		t.Fatal("missing topology accepted")
	}
	if _, err := sim.NewNetwork(sim.Config{Topology: m}); err == nil {
		t.Fatal("missing routing accepted")
	}
	if _, err := sim.NewNetwork(sim.Config{Topology: m, Routing: &routing.XY{Mesh: m}, VCDepth: 2}); err == nil {
		t.Fatal("VCDepth < MaxPktLen accepted")
	}
	if _, err := sim.NewNetwork(sim.Config{Topology: m, Routing: &routing.XY{Mesh: m}, VCsPerVNet: 40}); err == nil {
		t.Fatal("over-wide VC config accepted")
	}
	// Router port sets are one word: a 65-port router must be refused, not
	// silently alias port 64 onto port 0.
	wide, err := topology.NewGraph("wide", 2, []int{0, 1}, []topology.Link{
		{Src: 0, SrcPort: 64, Dst: 1, DstPort: 1, Latency: 1},
		{Src: 1, SrcPort: 1, Dst: 0, DstPort: 64, Latency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewNetwork(sim.Config{Topology: wide, Routing: &routing.XY{Mesh: m}}); err == nil {
		t.Fatal("65-port router accepted")
	}
}

func TestStatsThroughputMatchesOfferedLoadBelowSaturation(t *testing.T) {
	m, _ := topology.NewMesh(4, 4, 1)
	pat := traffic.Uniform(16)
	n, _ := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.2},
		VCsPerVNet: 2,
		Seed:       5,
		StatsStart: 1000,
	})
	n.Run(11000)
	got := n.Stats().Throughput(16)
	if got < 0.15 || got > 0.25 {
		t.Fatalf("throughput %f far from offered 0.2", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n := meshNet(t, 4, 4, 2, 0.3, "uniform_random", 99)
		n.Run(2000)
		return n.Stats().Ejected, n.Stats().LatencySum
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", e1, l1, e2, l2)
	}
}
