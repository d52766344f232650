package sim

import (
	"strings"
	"testing"
)

// hasRule reports whether any violation carries the rule.
func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// rulesOf collects the distinct rule names for failure messages.
func rulesOf(vs []Violation) string {
	var names []string
	for _, v := range vs {
		names = append(names, v.Rule)
	}
	return strings.Join(names, ",")
}

// account makes the conservation check agree with manually enqueued
// flits so targeted corruption tests only trip their own rule.
func account(n *Network, flits int64) { n.stats.InjectedFlits += flits }

func TestCheckerCleanOnLegalSpinOverlap(t *testing.T) {
	n, v := vcFixture(t)
	// Old packet's draining tail ahead of the new owner's arriving head —
	// exactly the overlap StartSpin produces.
	old := &Packet{ID: 1, Length: 3}
	new_ := &Packet{ID: 2, Length: 3}
	v.enqueue(Flit{Pkt: old, Seq: 2}, 0) // tail of old
	v.enqueue(Flit{Pkt: new_, Seq: 0}, 1)
	v.enqueue(Flit{Pkt: new_, Seq: 1}, 2)
	v.reserve(new_, 1, true)
	account(n, 3)
	if vs := n.CheckStructural(); len(vs) != 0 {
		t.Fatalf("legal spin overlap flagged: %s (%v)", rulesOf(vs), vs)
	}
}

func TestCheckerDetectsThreePacketInterleave(t *testing.T) {
	n, v := vcFixture(t)
	for i, p := range []*Packet{{ID: 1, Length: 1}, {ID: 2, Length: 1}, {ID: 3, Length: 1}} {
		v.enqueue(Flit{Pkt: p, Seq: 0}, int64(i))
	}
	v.reserve(&Packet{ID: 3, Length: 1}, 0, true)
	account(n, 3)
	if vs := n.CheckStructural(); !hasRule(vs, RuleVCTInterleave) {
		t.Fatalf("three resident packets not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsSplitPacket(t *testing.T) {
	n, v := vcFixture(t)
	a := &Packet{ID: 1, Length: 2}
	b := &Packet{ID: 2, Length: 1}
	v.enqueue(Flit{Pkt: a, Seq: 0}, 0)
	v.enqueue(Flit{Pkt: b, Seq: 0}, 1)
	v.enqueue(Flit{Pkt: a, Seq: 1}, 2) // a resumes after b: illegal
	v.reserve(a, 0, true)
	account(n, 3)
	if vs := n.CheckStructural(); !hasRule(vs, RuleVCTInterleave) {
		t.Fatalf("split packet not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsTruncatedOldPacket(t *testing.T) {
	n, v := vcFixture(t)
	// Old packet's run does not end in its tail — the overlap is not the
	// old-tail + new-head shape the VCT contract allows.
	old := &Packet{ID: 1, Length: 3}
	new_ := &Packet{ID: 2, Length: 2}
	v.enqueue(Flit{Pkt: old, Seq: 1}, 0) // mid-packet, tail (seq 2) missing
	v.enqueue(Flit{Pkt: new_, Seq: 0}, 1)
	v.reserve(new_, 1, true)
	account(n, 2)
	if vs := n.CheckStructural(); !hasRule(vs, RuleVCTInterleave) {
		t.Fatalf("truncated old packet not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsHeadlessNewPacket(t *testing.T) {
	n, v := vcFixture(t)
	old := &Packet{ID: 1, Length: 1}
	new_ := &Packet{ID: 2, Length: 3}
	v.enqueue(Flit{Pkt: old, Seq: 0}, 0)  // tail of old (length 1)
	v.enqueue(Flit{Pkt: new_, Seq: 1}, 1) // new packet arrives mid-body
	v.reserve(new_, 1, true)
	account(n, 2)
	if vs := n.CheckStructural(); !hasRule(vs, RuleVCTInterleave) {
		t.Fatalf("headless new packet not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsSeqGap(t *testing.T) {
	n, v := vcFixture(t)
	p := &Packet{ID: 1, Length: 4}
	v.enqueue(Flit{Pkt: p, Seq: 0}, 0)
	v.enqueue(Flit{Pkt: p, Seq: 2}, 1) // seq 1 missing
	v.reserve(p, 0, true)
	account(n, 2)
	if vs := n.CheckStructural(); !hasRule(vs, RuleVCTOrder) {
		t.Fatalf("sequence gap not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsMissingReservation(t *testing.T) {
	n, v := vcFixture(t)
	p := &Packet{ID: 1, Length: 2}
	v.enqueue(Flit{Pkt: p, Seq: 0}, 0)
	account(n, 1)
	if vs := n.CheckStructural(); !hasRule(vs, RuleReservation) {
		t.Fatalf("buffered flits without owner not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsStaleReservation(t *testing.T) {
	n, v := vcFixture(t)
	// Owner is a packet with no buffered flits and nothing in flight.
	resident := &Packet{ID: 1, Length: 2}
	v.enqueue(Flit{Pkt: resident, Seq: 0}, 0)
	v.reserve(&Packet{ID: 2, Length: 2}, 0, true)
	account(n, 1)
	if vs := n.CheckStructural(); !hasRule(vs, RuleReservation) {
		t.Fatalf("stale owner not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsCreditLeak(t *testing.T) {
	n, v := vcFixture(t)
	// An in-flight promise with no flit on any link: the credit
	// cross-check against link transit state must catch it, and the
	// phantom promise also drives FreeSlots negative when the buffer
	// fills.
	v.inFlight = 2
	if vs := n.CheckStructural(); !hasRule(vs, RuleCredit) {
		t.Fatalf("phantom in-flight promise not flagged: %s", rulesOf(vs))
	}
	v.inFlight = -1
	if vs := n.CheckStructural(); !hasRule(vs, RuleCredit) {
		t.Fatalf("negative in-flight not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsConservationBreak(t *testing.T) {
	n, _ := vcFixture(t)
	n.stats.InjectedFlits = 7 // nothing buffered or in transit
	if vs := n.CheckStructural(); !hasRule(vs, RuleConservation) {
		t.Fatalf("flit leak not flagged: %s", rulesOf(vs))
	}
}

func TestCheckerDetectsDuplicateDelivery(t *testing.T) {
	n, _ := vcFixture(t)
	c := n.AttachChecker(CheckOptions{})
	p := &Packet{ID: 9, Length: 1}
	c.onEject(p)
	c.onEject(p)
	if !hasRule(c.Violations(), RuleDelivery) {
		t.Fatalf("duplicate delivery not flagged: %s", rulesOf(c.Violations()))
	}
}

func TestCheckerDetectsHopBoundBreak(t *testing.T) {
	n, _ := vcFixture(t)
	c := n.AttachChecker(CheckOptions{})
	// Diameter of the 2-router line is 1: 3 productive hops overshoot.
	c.onEject(&Packet{ID: 1, Length: 1, Hops: 40, Misroutes: 2})
	if !hasRule(c.Violations(), RuleHopBound) {
		t.Fatalf("hop overshoot not flagged: %s", rulesOf(c.Violations()))
	}
	if hasRule(c.Violations(), RuleDelivery) {
		t.Fatal("single delivery mis-flagged")
	}
}

func TestCheckerFlagsStalledVC(t *testing.T) {
	g := lineTopology(t)
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VCsPerVNet: 1, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := n.AttachChecker(CheckOptions{StallBound: 20})
	// A complete resident frozen with no recovery scheme attached: its
	// front flit can never move, which the progress bound must flag.
	v := n.Router(0).VC(1, 0)
	p := &Packet{ID: 1, Length: 2, DstRouter: 1}
	v.reserve(p, 0, false)
	v.enqueue(Flit{Pkt: p, Seq: 0}, 0)
	v.enqueue(Flit{Pkt: p, Seq: 1}, 0)
	account(n, 2)
	n.Router(0).FreezeVC(v)
	n.Run(60)
	if !hasRule(c.Violations(), RuleProgress) {
		t.Fatalf("stalled VC not flagged: %s", rulesOf(c.Violations()))
	}
	if c.MaxStall() <= 20 {
		t.Fatalf("max stall %d not tracked past bound", c.MaxStall())
	}
}

func TestCheckerCleanOnRealTraffic(t *testing.T) {
	// End-to-end sanity: the engine itself must never trip the checker.
	g := lineTopology(t)
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VCsPerVNet: 2, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := n.AttachChecker(CheckOptions{StallBound: 200})
	for i := 0; i < 30; i++ {
		n.InjectPacket(0, PacketSpec{Dst: 1, Length: 1 + i%5})
	}
	n.Run(400)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Ejected != 30 {
		t.Fatalf("delivered %d of 30", n.Stats().Ejected)
	}
}

// TestCheckerAuditsWorklists breaks each worklist bitset by hand, one bit
// at a time, and requires exactly that violation: Step visits only what
// the bitsets name, so a missed wake-up would otherwise be a silent stall.
func TestCheckerAuditsWorklists(t *testing.T) {
	cases := []struct {
		name   string
		breakF func(n *Network, v *VC)
		want   string
	}{
		{"occupied VC, bit clear", func(_ *Network, v *VC) { v.router.occ.clear(v.Slot()) }, "r1 p2 vc0 holds 1 flits but its occupied bit is false"},
		{"empty VC, bit set", func(n *Network, _ *VC) { n.Router(0).occ.set(3) }, "r0 p1 vc1 holds 0 flits but its occupied bit is true"},
		{"active router asleep", func(_ *Network, v *VC) { v.router.net.awake.clear(v.router.ID) }, "r1 is active but not in the awake set"},
		{"queued NIC not busy", func(n *Network, _ *VC) { n.nicBusy.clear(0) }, "terminal 0 has 1 packets queued (mid-injection: false) but is not in the busy set"},
		{"free VC, free bit clear", func(n *Network, _ *VC) { n.Router(0).inFree.clear(n.Router(0).VC(1, 1).freeBit()) }, "r0 p1 vc1 snapshot is reserved=false free=5 but its free bit is false"},
		{"unrouted head, route bit clear", func(_ *Network, v *VC) { v.router.needRoute.clear(v.Slot()) }, "r1 p2 vc0 (1 flits, routed=false) has its route-request bit false"},
		{"empty VC asleep", func(n *Network, _ *VC) { n.Router(0).blocked.set(3) }, "r0 p1 vc1 sleeps in the blocked set but is empty"},
		{"NIC asleep beside a free VC", func(n *Network, _ *VC) { n.nicBlocked.set(0) }, "terminal 0 sleeps in the blocked set but r0 p0 vc0 has room for its next packet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, v := vcFixture(t)
			p := &Packet{ID: 1, Length: 2}
			v.reserve(p, 0, false)
			v.enqueue(Flit{Pkt: p, Seq: 0}, 0)
			account(n, 1)
			n.InjectPacket(0, PacketSpec{Dst: 1, Length: 1})
			if vs := n.CheckStructural(); len(vs) != 0 {
				t.Fatalf("intact worklists flagged: %v", vs)
			}
			tc.breakF(n, v)
			vs := n.CheckStructural()
			if len(vs) != 1 || vs[0].Rule != RuleWorklist || vs[0].Detail != tc.want {
				t.Fatalf("got %v, want one %s violation %q", vs, RuleWorklist, tc.want)
			}
		})
	}
}

// stallFixture is a 1-VC line whose only link VC at r1 holds a parked
// packet, so traffic from terminal 0 backs up behind it: the first packet's
// head blocks in r0's terminal VC and the next waits in the NIC, its packet
// drawn as its NIC's front. Both come from the pool, as a traffic source's
// do. release takes the parked packet away by hand.
func stallFixture(t *testing.T) (n *Network, head *VC, release func()) {
	t.Helper()
	n, err := NewNetwork(Config{Topology: lineTopology(t), Routing: nopRouting{}, VCsPerVNet: 1, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachChecker(CheckOptions{})
	down := n.Router(1).VC(2, 0)
	parked := &Packet{ID: 1 << 40, Length: 1}
	down.reserve(parked, 0, false)
	down.enqueue(Flit{Pkt: parked, Seq: 0}, 0)
	account(n, 1)
	n.Router(1).FreezeVC(down)
	n.Run(1) // the commit publishes the parked VC's snapshot
	for i := 0; i < 2; i++ {
		n.generate(0, PacketSpec{Dst: 1, Length: 5})
	}
	n.Run(8)
	return n, n.Router(0).VC(0, 0), func() {
		n.Router(1).UnfreezeVC(down)
		down.dequeue()
		n.stats.InjectedFlits--
	}
}

// TestStalledHeadAndNICSleepAndWake drives the stall index end to end on
// real traffic: both sleepers are in their sets while the way is shut, the
// checker finds nothing wrong with that, and freeing the one VC they wait
// for wakes both — the packets arrive.
func TestStalledHeadAndNICSleepAndWake(t *testing.T) {
	n, head, release := stallFixture(t)
	if !n.Router(0).blocked.has(head.Slot()) || !n.nicBlocked.has(0) {
		t.Fatalf("backed-up head asleep: %v, backlogged NIC asleep: %v; want both",
			n.Router(0).blocked.has(head.Slot()), n.nicBlocked.has(0))
	}
	before := SAVisits(n)
	n.Run(50)
	// The parked VC is frozen, not a stalled head: it alone takes its
	// (empty) turn each cycle.
	if got := SAVisits(n) - before; got != 50 {
		t.Fatalf("%d switch-allocation turns in 50 cycles, want the parked VC's 50 and none for the sleeping head", got)
	}
	release()
	n.Run(40)
	if err := n.Checker().Err(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Ejected != 2 {
		t.Fatalf("delivered %d of 2 after the way opened", n.Stats().Ejected)
	}
}

// The four tests below corrupt one index each on that traffic, the way a
// bug in its upkeep would, and require the checker to name it.

func TestCheckerDetectsDroppedBlockedWake(t *testing.T) {
	n, head, release := stallFixture(t)
	release()
	n.Run(1) // the commit publishes the freed VC and wakes r0's heads
	if n.Router(0).blocked.has(head.Slot()) {
		t.Fatal("head still asleep after the VC it waits for freed")
	}
	n.Router(0).blocked.set(head.Slot()) // as if that wake had been dropped
	if vs := n.CheckStructural(); len(vs) != 1 || vs[0].Rule != RuleWorklist {
		t.Fatalf("dropped wake not flagged as one %s violation: %v", RuleWorklist, vs)
	}
}

func TestCheckerDetectsStaleFreeBit(t *testing.T) {
	n, head, _ := stallFixture(t)
	n.Router(0).inFree.set(head.freeBit()) // reserved by the packet it holds
	if vs := n.CheckStructural(); len(vs) != 1 || vs[0].Rule != RuleWorklist {
		t.Fatalf("free bit over a reserved VC not flagged as one %s violation: %v", RuleWorklist, vs)
	}
}

func TestCheckerDetectsStaleRouteRequest(t *testing.T) {
	n, head, _ := stallFixture(t)
	n.Router(0).needRoute.set(head.Slot()) // head was routed cycles ago
	if vs := n.CheckStructural(); len(vs) != 1 || vs[0].Rule != RuleWorklist {
		t.Fatalf("route request over a routed head not flagged as one %s violation: %v", RuleWorklist, vs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("routeStage accepted a route request without an unrouted head")
		}
	}()
	n.Step()
}

func TestCheckerDetectsStaleNICBlocked(t *testing.T) {
	n, _, release := stallFixture(t)
	release()
	n.Run(40)
	if n.nicBlocked.has(0) {
		t.Fatal("NIC still asleep after its queue drained")
	}
	n.nicBlocked.set(0)
	if vs := n.CheckStructural(); len(vs) != 1 || vs[0].Rule != RuleWorklist {
		t.Fatalf("idle NIC in the blocked set not flagged as one %s violation: %v", RuleWorklist, vs)
	}
}

// The two tests below break one of the tallies the audit recounts, between
// two audits of stallFixture's traffic, and require the next audit to name it.

// TestCheckerDetectsQueuedCountDrift: QueuedPackets is kept incrementally;
// the audit recounts the NIC queues.
func TestCheckerDetectsQueuedCountDrift(t *testing.T) {
	n, _, _ := stallFixture(t)
	n.Run(2*auditEvery - n.now)
	if n.QueuedPackets() != 1 || len(n.checker.violations) != 0 {
		t.Fatalf("fixture has %d packets queued, want 1; violations %v", n.QueuedPackets(), n.checker.violations)
	}
	n.queuedPackets++ // a push counted twice
	n.Step()
	if vs := n.checker.violations; len(vs) != 1 || !recorded(n.checker, RuleConservation, 2*auditEvery) {
		t.Fatalf("queued counter drift not flagged as one %s violation by the audit: %v", RuleConservation, vs)
	}
}

// TestCheckerDetectsHeldPacketOnFreeList: the pool remembers chunks, not
// packets; the audit counts the pooled packets held (by their tails, and
// NICs' packets not yet injected) against those off the free list.
func TestCheckerDetectsHeldPacketOnFreeList(t *testing.T) {
	n, _, _ := stallFixture(t)
	n.Run(2*auditEvery - n.now)
	front := n.nics[0].front
	if front == nil || !front.pooled || len(n.checker.violations) != 0 {
		t.Fatalf("fixture's NIC holds no pooled front packet (%v); violations %v", front, n.checker.violations)
	}
	n.pktPool = append(n.pktPool, front) // a recycle of a packet still held
	n.Step()
	if vs := n.checker.violations; len(vs) != 1 || !recorded(n.checker, RuleConservation, 2*auditEvery) {
		t.Fatalf("held packet on the free list not flagged as one %s violation by the audit: %v", RuleConservation, vs)
	}
}

// TestCheckerDetectsLeakedBlock: record blocks are remembered by chunk, like
// packets; the audit counts the blocks the NICs' queues hold against those
// carved and not on the free list.
func TestCheckerDetectsLeakedBlock(t *testing.T) {
	n, _, _ := stallFixture(t)
	n.Run(2*auditEvery - n.now)
	if held, free, _ := RecordBlocks(n); held != 1 || free == 0 || len(n.checker.violations) != 0 {
		t.Fatalf("fixture's NIC holds %d blocks with %d free, want 1 and some; violations %v", held, free, n.checker.violations)
	}
	LeakBlock(n)
	n.Step()
	if vs := n.checker.violations; len(vs) != 1 || !recorded(n.checker, RuleConservation, 2*auditEvery) {
		t.Fatalf("leaked block not flagged as one %s violation by the audit: %v", RuleConservation, vs)
	}
}

// TestCheckerReportsEachBookDrift: the books are looked at as separate
// entities, so a pool drift that starts while the queued count is still off
// gets a report of its own.
func TestCheckerReportsEachBookDrift(t *testing.T) {
	n, _, _ := stallFixture(t)
	n.Run(2*auditEvery - n.now)
	n.queuedPackets++
	n.Step()
	n.pktPool = append(n.pktPool, n.nics[0].front)
	n.Run(auditEvery)
	if vs := n.checker.violations; len(vs) != 2 || !recorded(n.checker, RuleConservation, 3*auditEvery) {
		t.Fatalf("pool drift under a standing queued-count drift not flagged by the next audit: %v", vs)
	}
}

// TestCheckerStallRestartsOnReentry pins the hazard of keeping stall
// state in a flat per-slot array: a packet that leaves a VC and later
// re-enters it (a misroute) presents the same (packet, seq, length) the
// slot last recorded, and must still start a fresh no-progress interval.
func TestCheckerStallRestartsOnReentry(t *testing.T) {
	g := lineTopology(t)
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VCsPerVNet: 1, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := n.AttachChecker(CheckOptions{StallBound: 20})
	r := n.Router(0)
	v := r.VC(1, 0)
	p := &Packet{ID: 1, Length: 1, DstRouter: 1}
	park := func(cycles int64) {
		v.reserve(p, n.now, true)
		v.enqueue(Flit{Pkt: p, Seq: 0}, n.now)
		n.stats.InjectedFlits++
		r.FreezeVC(v)
		n.Run(cycles)
	}
	park(15)
	v.dequeue()
	n.stats.InjectedFlits--
	n.Run(1) // one pass sees the VC empty
	park(15)
	if err := c.Err(); err != nil {
		t.Fatalf("two 15-cycle waits around an absence read as one stall: %v", err)
	}
	if c.MaxStall() >= 15 {
		t.Fatalf("max stall %d spans the absence", c.MaxStall())
	}
}
