package sim_test

import (
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// spin1vc is the benchmark's torus8x8_spin1vc leg, at its seed-1 seed: the
// 1-VC SPIN regime past its knee.
var spin1vc = spin.Config{Topology: "torus:8x8", Routing: "favors_min", Scheme: "spin",
	VCsPerVNet: 1, Traffic: "bit_complement", Rate: 0.10, Seed: 103}

// TestBacklogHoldsNoPackets runs the 1-VC SPIN regime past its knee, where
// the source backlog grows without bound, and requires the packet pool not
// to grow with it: a queued packet is a record, and a *Packet is drawn only
// for a NIC's front. Live packets are bounded by what the network can hold
// — two per VC under virtual cut-through, one per flit slot on a link
// (latency plus the router pipeline), one per NIC — so the chunks the pool
// is cut from are too.
func TestBacklogHoldsNoPackets(t *testing.T) {
	s, err := spin.New(spin1vc)
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

// TestBacklogBlocksRecycle pins what a growing backlog costs in record
// blocks. A NIC holds only the blocks its queue spans, so past the knee the
// NICs hold at most one block per sixteen records plus one partial block
// at each end of every non-empty queue; a drained queue hands every block
// back; and a pooled rewind of the same run finds all it needs on the free
// list, where its first run left them.
func TestBacklogBlocksRecycle(t *testing.T) {
	pool := spin.NewPool(1)
	s, err := pool.Get(spin1vc)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Network()
	const cycles = 36000
	n.Run(cycles)
	queued, busy := n.QueuedPackets(), 0
	for term := 0; term < n.Topology().NumTerminals(); term++ {
		if n.NIC(term).QueueLen() > 0 {
			busy++
		}
	}
	held, free, carved := sim.RecordBlocks(n)
	t.Logf("cycle %d: %d records queued at %d NICs in %d blocks; %d free, %d carved", cycles, queued, busy, held, free, carved)
	if queued <= 10000 {
		t.Fatalf("%d records queued after %d cycles, want > 10000: the run is not past the knee", queued, cycles)
	}
	if bound := (queued+sim.BlockRecs-1)/sim.BlockRecs + busy; held > bound {
		t.Fatalf("the NICs hold %d blocks for %d records at %d NICs, want at most %d", held, queued, busy, bound)
	}
	if held+free != carved {
		t.Fatalf("%d blocks held + %d free, but %d carved", held, free, carved)
	}
	if !s.Drain(200 * cycles) {
		t.Fatal("the backlog did not drain")
	}
	if held, free, _ := sim.RecordBlocks(n); held != 0 || free != carved {
		t.Fatalf("after the drain the NICs hold %d blocks and %d of %d are free", held, free, carved)
	}
	pool.Put(s)
	if s, err = pool.Get(spin1vc); err != nil || s.Network() != n {
		t.Fatalf("the pool did not rewind the network it holds (%v)", err)
	}
	s.Run(cycles)
	if _, _, again := sim.RecordBlocks(n); again != carved {
		t.Fatalf("a pooled rewind of the same run carved blocks: %d, %d before", again, carved)
	}
}
