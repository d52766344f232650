package sim_test

import (
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// TestBacklogHoldsNoPackets runs the 1-VC SPIN regime past its knee, where
// the source backlog grows without bound, and requires the packet pool not
// to grow with it: a queued packet is a record, and a *Packet is drawn only
// for a NIC's front. Live packets are bounded by what the network can hold
// — two per VC under virtual cut-through, one per flit slot on a link
// (latency plus the router pipeline), one per NIC — so the chunks the pool
// is cut from are too.
func TestBacklogHoldsNoPackets(t *testing.T) {
	// The benchmark's torus8x8_spin1vc leg, at its seed-1 seed.
	s, err := spin.New(spin.Config{Topology: "torus:8x8", Routing: "favors_min", Scheme: "spin",
		VCsPerVNet: 1, Traffic: "bit_complement", Rate: 0.10, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Network()
	capacity := n.Topology().NumTerminals()
	for r := 0; r < n.NumRouters(); r++ {
		capacity += 2 * n.Router(r).Radix() * n.Router(r).VCsPerPort()
	}
	for _, l := range n.Topology().Links() {
		capacity += l.Latency + 1
	}
	const chunk = 64
	bound := (capacity + chunk - 1) / chunk

	n.Run(10000)
	from := n.QueuedPackets()
	n.Run(26000)
	grown := n.QueuedPackets() - from
	_, owned := sim.PooledPackets(n)
	t.Logf("queued %d -> %d; %d pooled packets (%d chunks, bound %d)", from, n.QueuedPackets(), owned, owned/chunk, bound)
	if grown <= 10000 {
		t.Fatalf("the backlog grew by %d packets from cycle 10000 to 36000, want > 10000: the run is not past the knee", grown)
	}
	if owned/chunk > bound {
		t.Fatalf("the pool grew to %d chunks under a growing backlog; the network holds at most %d packets (%d chunks)", owned/chunk, capacity, bound)
	}
}
