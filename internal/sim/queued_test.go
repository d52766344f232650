package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// TestQueuedPacketsCounterMatchesRecount audits the incremental
// source-queue counter against the checker's recount of the NIC queues at
// many points mid-simulation, across the full queue lifecycle: growth under
// an oversaturating load, plateau, and drain back to zero after traffic
// stops. The counter is read on every stats call, so a drift here
// silently corrupts every saturation measurement.
func TestQueuedPacketsCounterMatchesRecount(t *testing.T) {
	// XY at rate 0.9 oversaturates a 4x4 mesh: queues grow, so push, pop,
	// ring growth and wrap-around and mid-injection states all occur.
	n := meshNet(t, 4, 4, 2, 0.9, "transpose", 11)
	c := n.AttachChecker(sim.CheckOptions{})
	for i := 0; i < 2000; i++ {
		n.Step()
		if i%50 == 0 {
			if vs := c.Violations(); len(vs) != 0 { // each read is an audit
				t.Fatalf("cycle %d: %v", i, vs)
			}
		}
	}
	if n.QueuedPackets() == 0 {
		t.Fatal("oversaturated run built no backlog; the audit exercised nothing")
	}
	// Drain: the counter must walk back down to exactly zero.
	n.Drain(200000)
	if err := c.Err(); err != nil || n.QueuedPackets() != 0 {
		t.Fatalf("after drain: QueuedPackets() = %d, want 0 (%v)", n.QueuedPackets(), err)
	}
}
