package sim

import "testing"

// recorded reports whether c has recorded a violation of rule at cycle at,
// without reading the verdict (a read is itself an audit).
func recorded(c *InvariantChecker, rule string, at int64) bool {
	for _, v := range c.violations {
		if v.Rule == rule && v.Cycle == at {
			return true
		}
	}
	return false
}

// corruption plants one defect on stallFixture's traffic: head is r0's
// stalled terminal VC (five routed flits, asleep in blocked), down the
// parked, frozen VC at r1 it waits for, idle an empty VC nothing touches.
type corruption struct {
	name  string
	plant func(n *Network, head, down, idle *VC)
	want  string
}

// throughEngine are the corruptions a real bug would make through the
// engine's own mutators, which mark what they touch dirty (or leave an
// occupied VC's bits wrong): the change set names every one of them.
var throughEngine = []corruption{
	{"credit leak (a dropped inFlight--)", func(_ *Network, head, _, _ *VC) {
		head.inFlight++
		head.markDirty()
	}, RuleCredit},
	{"stale reservation", func(n *Network, head, _, _ *VC) {
		head.reserve(&Packet{ID: 99, Length: 1}, n.now, true)
	}, RuleReservation},
	{"split packet", func(n *Network, _, down, _ *VC) {
		down.enqueue(Flit{Pkt: &Packet{ID: 98, Length: 1}, Seq: 0}, n.now)
		down.enqueue(down.buf[0], n.now)
		account(n, 2)
	}, RuleVCTInterleave},
	{"seq gap", func(n *Network, _, _, idle *VC) {
		p := &Packet{ID: 97, Length: 3}
		idle.reserve(p, n.now, false)
		idle.enqueue(Flit{Pkt: p, Seq: 0}, n.now)
		idle.enqueue(Flit{Pkt: p, Seq: 2}, n.now)
		idle.router.FreezeVC(idle) // or the head is gone before anyone looks
		account(n, 2)
	}, RuleVCTOrder},
	{"occupied bit lost on a dequeue", func(_ *Network, head, _, _ *VC) {
		head.router.occ.clear(head.Slot())
		head.markDirty()
	}, RuleWorklist},
	{"route request lost", func(n *Network, _, _, idle *VC) {
		p := &Packet{ID: 96, Length: 1}
		idle.reserve(p, n.now, false)
		idle.enqueue(Flit{Pkt: p, Seq: 0}, n.now)
		account(n, 1)
		idle.router.needRoute.clear(idle.Slot())
	}, RuleWorklist},
	{"sleep not owed", func(_ *Network, _, down, _ *VC) {
		down.router.blocked.set(down.Slot())
	}, RuleWorklist},
	{"free bit over a reserved VC", func(_ *Network, head, _, _ *VC) {
		head.router.inFree.set(head.freeBit())
	}, RuleWorklist},
}

// behindMarkDirty are the same kinds of defect written straight into the
// state, as a mutation that forgot markDirty (and the occ bit) would: the
// change set cannot name them, the audit must.
var behindMarkDirty = []corruption{
	{"credit leak", func(_ *Network, _, _, idle *VC) { idle.inFlight = 1 }, RuleCredit},
	{"unowned flit", func(_ *Network, _, _, idle *VC) {
		idle.buf = append(idle.buf, Flit{Pkt: &Packet{ID: 95, Length: 1}})
	}, RuleReservation},
	{"split packet", func(_ *Network, _, _, idle *VC) {
		a, b := &Packet{ID: 94, Length: 2}, &Packet{ID: 93, Length: 1}
		idle.buf = append(idle.buf, Flit{Pkt: a, Seq: 0}, Flit{Pkt: b, Seq: 0}, Flit{Pkt: a, Seq: 1})
	}, RuleVCTInterleave},
	{"seq gap", func(_ *Network, _, _, idle *VC) {
		p := &Packet{ID: 92, Length: 3}
		idle.buf = append(idle.buf, Flit{Pkt: p, Seq: 0}, Flit{Pkt: p, Seq: 2})
	}, RuleVCTOrder},
	{"occupied bit cleared over live flits", func(_ *Network, head, _, _ *VC) {
		head.router.occ.clear(head.Slot())
	}, RuleWorklist},
	{"blocked bit on an empty VC", func(_ *Network, _, _, idle *VC) {
		idle.router.blocked.set(idle.Slot())
	}, RuleWorklist},
	{"router asleep over flits", func(n *Network, head, _, _ *VC) { n.awake.clear(head.router.ID) }, RuleWorklist},
	{"NIC asleep beside a free VC", func(n *Network, _, _, _ *VC) { n.nicBlocked.set(1) }, RuleWorklist},
}

// corruptionFixture is stallFixture stepped to cycle start, with the VCs a
// corruption plants on.
func corruptionFixture(t *testing.T, start int64) (n *Network, head, down, idle *VC) {
	n, head, _ = stallFixture(t)
	n.Run(start - n.now)
	if vs := n.checker.violations; len(vs) != 0 {
		t.Fatalf("fixture not clean at cycle %d: %v", n.now, vs)
	}
	return n, head, n.Router(1).VC(2, 0), n.Router(1).VC(0, 0)
}

// TestDeltaPassCatchesEngineCorruption: planted mid-run between two audits,
// every corruption a bug would make through the engine is reported by the
// very next cycle's delta pass.
func TestDeltaPassCatchesEngineCorruption(t *testing.T) {
	const at = 2*auditEvery + 7
	for _, tc := range throughEngine {
		t.Run(tc.name, func(t *testing.T) {
			n, head, down, idle := corruptionFixture(t, at)
			tc.plant(n, head, down, idle)
			n.Step()
			if !recorded(n.checker, tc.want, at) {
				t.Fatalf("no %s violation stamped cycle %d: %v", tc.want, at, n.checker.violations)
			}
		})
	}
}

// TestAuditCatchesWhatBypassedMarkDirty pins the bound on what the delta
// pass cannot see: a corruption written behind markDirty's back is reported
// by the next audit, stamped auditEvery-1 cycles later, at worst, than the
// cycle it happened in, and one planted on a run's last cycle by the read of
// the verdict.
func TestAuditCatchesWhatBypassedMarkDirty(t *testing.T) {
	const at = 2*auditEvery + 1 // the cycle after an audit: the longest wait
	for _, tc := range behindMarkDirty {
		t.Run(tc.name, func(t *testing.T) {
			n, head, down, idle := corruptionFixture(t, at)
			tc.plant(n, head, down, idle)
			n.Run(auditEvery)
			if !recorded(n.checker, tc.want, 3*auditEvery) {
				t.Fatalf("no %s violation stamped at the audit of cycle %d: %v", tc.want, 3*auditEvery, n.checker.violations)
			}

			n, head, down, idle = corruptionFixture(t, at)
			tc.plant(n, head, down, idle)
			n.Step()
			if vs := n.checker.Violations(); !hasRule(vs, tc.want) {
				t.Fatalf("reading the verdict a cycle later found no %s violation: %v", tc.want, vs)
			}
		})
	}
}

// TestCheckerReportsOncePerSpell: a violation that persists is one
// violation. Re-reported every cycle, a stuck VC filled all maxViolations
// slots within 64 cycles and every later, different failure was only a
// dropped count; and it comes back once the VC has passed in between.
func TestCheckerReportsOncePerSpell(t *testing.T) {
	n, _, down, idle := corruptionFixture(t, 10)
	c := n.checker
	owner := down.resvOwner
	down.reserve(&Packet{ID: 99, Length: 1}, n.now, true) // stale reservation, for good
	n.Run(190)
	idle.inFlight++ // credit leak on another VC
	idle.markDirty()
	n.Run(10)
	vs := c.Violations()
	if !hasRule(vs, RuleReservation) || !hasRule(vs, RuleCredit) {
		t.Fatalf("want a %s and a %s violation, got %s", RuleReservation, RuleCredit, rulesOf(vs))
	}
	if len(vs) != 2 || c.dropped != 0 || vs[0].Cycle != 10 || vs[1].Cycle != 200 {
		t.Fatalf("want one violation per spell, at cycles 10 and 200, none dropped; got %v (+%d dropped)", vs, c.dropped)
	}
	if err := c.Err(); err == nil || err.Error() != "sim: 2 invariant violation(s), first: "+vs[0].String() {
		t.Fatalf("Err() = %v, want the count and the first violation", err)
	}
	down.reserve(owner, n.now, true) // the VC passes again ...
	n.Run(1)
	down.reserve(&Packet{ID: 99, Length: 1}, n.now, true) // ... and fails again
	if vs = c.Violations(); len(vs) != 3 || vs[2].Rule != RuleReservation {
		t.Fatalf("second spell not reported: %v", vs)
	}
}
