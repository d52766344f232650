package sim

import (
	"fmt"
	"math/bits"
)

// The invariant checker is the runtime counterpart of the static CDG
// analysis: an always-on observer that asserts the structural contracts the
// simulator's correctness argument rests on — flit conservation,
// credit/free-slot accounting, the virtual cut-through interleave contract,
// reservation consistency, worklist upkeep, exactly-once delivery, hop
// bounds, and the SPIN liveness bounds (no VC stalls forever; no
// oracle-visible deadlock survives past the recovery bound). harness.Drive
// attaches one to every checked run; tests attach one to hand-built networks
// (Network.AttachChecker) or ask for one audit (Network.CheckStructural).
//
// A VC whose state did not change cannot change its verdict, so the
// structural rules run as two passes over the same rule bodies. Every cycle
// the delta pass looks at the VCs commit refreshed (Network.dirtyVCs), the
// destinations of flits on active links and, for the worklist bits alone,
// the occupied VCs. The audit walks everything, NIC and router sets too,
// and recounts the queued-packet counter and the packet pool (auditBooks),
// every auditEvery cycles and whenever the verdict is read: it catches what
// bypassed markDirty, at most auditEvery-1 cycles late.

// Violation is one invariant breach observed by an InvariantChecker.
type Violation struct {
	Cycle  int64  `json:"cycle"`
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Rule, v.Detail)
}

// Rule names reported by the checker.
const (
	RuleConservation  = "conservation"   // injected - ejected != flits in buffers + links; or the queued count, packet pool or record blocks off their books
	RuleCredit        = "credit"         // buffer occupancy / free-slot / in-flight accounting broken
	RuleVCTOrder      = "vct_order"      // flit sequence numbers not contiguous within a packet
	RuleVCTInterleave = "vct_interleave" // more than two packets, or not old-tail + new-head
	RuleReservation   = "reservation"    // VC allocation state inconsistent with buffered flits
	RuleDelivery      = "delivery"       // packet delivered more than once
	RuleHopBound      = "hop_bound"      // packet took more hops than the routing bound allows
	RuleProgress      = "progress"       // a VC's front flit made no progress for StallBound cycles
	RuleRecovery      = "recovery_bound" // oracle-visible deadlock outlived RecoveryBound cycles
	RuleWindow        = "window"         // closed-loop window accounting broken (outstanding outside [0,W], unmatched reply); drain residue is Drain's liveness verdict, not a window rule
	RuleWorklist      = "worklist"       // an engine worklist bitset disagrees with the state it indexes (a missed wake-up is a silent stall)
)

// auditEvery is the audit's cadence in cycles: a few percent of a saturated
// Step (every cycle, it cost two), half the default SPIN detection threshold.
const auditEvery = 64

const (
	// oracleEvery is the FindDeadlock sampling interval backing the
	// RecoveryBound check.
	oracleEvery = 16
	// hopSlack loosens the hop bound: a packet must satisfy
	// Hops - 2*Misroutes <= 2*diameter + hopSlack.
	hopSlack = 4
	// maxViolations caps recorded violations; checking continues but
	// further violations only bump a counter.
	maxViolations = 64
)

// CheckOptions configures an InvariantChecker. The zero value enables the
// structural checks (conservation, credit, VCT, reservation, worklist,
// delivery, hop bound) and disables the liveness bounds.
type CheckOptions struct {
	// StallBound, when > 0, flags any VC whose front flit is unchanged
	// for more than StallBound consecutive cycles — the forward-progress
	// bound. It must exceed the scheme's worst-case legitimate wait
	// (deadlock detection with backoff plus the recovery itself).
	StallBound int64
	// RecoveryBound, when > 0, flags any VC the global FindDeadlock
	// oracle reports continuously deadlocked (same resident packet) for
	// more than RecoveryBound cycles. This is the distributed-vs-global
	// agreement check: SPIN's probes must find and break every deadlock
	// the oracle sees within the bound.
	RecoveryBound int64
}

// wait times one VC's front flit for the forward-progress bound, or (frontSeq
// and bufLen left zero) its resident's stay in the oracle's deadlocked set.
// Only waiting VCs are visited, so seen — the cycle, plus one, of the last
// visit — tells a continuing wait from a packet re-entering a VC it left.
type wait struct {
	pktID            uint64
	frontSeq, bufLen int
	since, seen      int64
	reported         bool
}

// age returns how long w has lasted, restarting it first unless it was last
// visited at cycle prev with got, what is waiting, unchanged.
func (w *wait) age(now, prev int64, got wait) int64 {
	if w.seen != prev+1 || w.pktID != got.pktID || w.frontSeq != got.frontSeq || w.bufLen != got.bufLen {
		*w = got
		w.since = now
	}
	w.seen = now + 1
	return now - w.since
}

// pktRun is one packet's run of consecutive flits in a VC's FIFO.
type pktRun struct {
	pkt        *Packet
	start, end int // first and last seq
}

// spellRules are reported once per spell, so that one stuck VC (router, NIC,
// the network) cannot fill maxViolations. A rule's bit in failing is its index.
var spellRules = [...]string{RuleWorklist, RuleCredit, RuleVCTOrder, RuleVCTInterleave, RuleReservation, RuleConservation}

// What a look covers: every rule, or off the change set spellRules[0] alone.
const allRules, worklistOnly = 1<<len(spellRules) - 1, 1

// InvariantChecker observes a Network and records invariant violations.
// Attach one with Network.AttachChecker before running.
type InvariantChecker struct {
	net        *Network
	opt        CheckOptions
	diameter   int // -1 until the first delivery asks for it
	violations []Violation
	dropped    int64 // violations beyond maxViolations

	// failing holds, per entity (VCs by vcIndex, routers, NICs, the three
	// audited books, the network), the spellRules failing at its last look;
	// ent is under look, was its old bits.
	failing []uint8
	ent     int
	was     uint8

	// delivered has one bit per packet ID the engine issued (they are
	// dense: pktSeq*terminals + src + 1), foreign the IDs of hand-built ones.
	delivered bitset
	foreign   map[uint64]struct{}
	stalls    []wait // by vcIndex, like spells and inflight
	spells    []wait

	// One pass's scratch: flits on links per destination VC (zeroed through
	// touched); per router, the VCs looked at in full, their flits in buffered.
	inflight []int32
	touched  []*VC
	seen     []bitset
	buffered int
	runs     []pktRun
	dlBuf    []DeadlockedVC

	maxStall      int64 // longest no-progress interval observed on any VC
	maxSpell      int64 // longest continuous oracle-deadlock spell observed
	oracleFirings int64 // oracle samples that found >= 1 deadlocked VC
	// windowAuditReported dedupes the sticky AuditWindows error — the
	// generator repeats its first failure forever, one report suffices.
	windowAuditReported bool
}

func newChecker(n *Network, opt CheckOptions) *InvariantChecker {
	vcs := int(n.vcBase[len(n.routers)])
	c := &InvariantChecker{
		net:      n,
		opt:      opt,
		diameter: -1,
		failing:  make([]uint8, vcs+len(n.routers)+len(n.nics)+4),
		foreign:  make(map[uint64]struct{}),
		inflight: make([]int32, vcs),
		seen:     make([]bitset, len(n.routers)),
	}
	for i, r := range n.routers {
		c.seen[i] = newBitset(len(r.vcFlat))
	}
	if opt.StallBound > 0 {
		c.stalls = make([]wait, vcs)
	}
	if opt.RecoveryBound > 0 {
		c.spells = make([]wait, vcs)
	}
	return c
}

// AttachChecker installs an invariant checker that checks every cycle's
// changes and every delivery and audits the whole network every auditEvery
// cycles. At most one may be attached; attaching replaces any previous one.
func (n *Network) AttachChecker(opt CheckOptions) *InvariantChecker {
	n.checker = newChecker(n, opt)
	return n.checker
}

// Checker returns the attached invariant checker, or nil.
func (n *Network) Checker() *InvariantChecker { return n.checker }

// CheckStructural runs one audit (conservation, credit accounting, VCT
// interleave, reservation consistency, worklists) of the network's
// instantaneous state and returns any violations. It does not attach
// anything; tests use it to audit hand-built networks mid-run.
func (n *Network) CheckStructural() []Violation { return newChecker(n, CheckOptions{}).Violations() }

// Violations returns the recorded violations (nil when the run is clean)
// after one more audit, so that no run, however it ended, is read unaudited.
func (c *InvariantChecker) Violations() []Violation {
	c.pass(true)
	return c.violations
}

// Err summarises the violations as an error, nil when clean.
func (c *InvariantChecker) Err() error {
	if len(c.Violations()) == 0 {
		return nil
	}
	return fmt.Errorf("sim: %d invariant violation(s), first: %s", len(c.violations)+int(c.dropped), c.violations[0])
}

// MaxStall reports the longest observed no-progress interval (cycles) on
// any VC front flit — the empirical forward-progress bound of the run.
func (c *InvariantChecker) MaxStall() int64 { return c.maxStall }

// MaxDeadlockSpell reports the longest continuous interval (cycles) any
// VC stayed in the global oracle's deadlocked set — the empirical
// recovery bound of the run.
func (c *InvariantChecker) MaxDeadlockSpell() int64 { return c.maxSpell }

// OracleFirings reports how many oracle samples found a deadlock (each
// is also an EvOracleDeadlock event for whoever listens).
func (c *InvariantChecker) OracleFirings() int64 { return c.oracleFirings }

func (c *InvariantChecker) report(rule, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{Cycle: c.net.now, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	// First violation freezes the flight recorder (no-op when none is
	// attached): the ring and VC chain at the moment of failure are the
	// failure artifact's snapshot.
	c.net.CaptureForensics(rule)
}

// begin opens a look at entity e that runs the covered spellRules, re-arming
// them; flag records that one failed, reporting it unless it already was.
func (c *InvariantChecker) begin(e int, covered uint8) {
	c.ent, c.was = e, c.failing[e]
	c.failing[e] &^= covered
}

func (c *InvariantChecker) flag(rule, format string, args ...any) {
	var bit uint8
	for i, r := range spellRules {
		if r == rule {
			bit = 1 << i
		}
	}
	c.failing[c.ent] |= bit
	if c.was&bit == 0 {
		c.report(rule, format, args...)
	}
}

// flagVC is flag for a rule about v, whose place leads the detail.
func (c *InvariantChecker) flagVC(v *VC, rule, format string, args ...any) {
	c.flag(rule, "r%d p%d vc%d "+format, append([]any{v.router.ID, v.port, v.index}, args...)...)
}

// endOfStep runs at the end of Network.Step, after switch allocation.
func (c *InvariantChecker) endOfStep() {
	c.pass(c.net.now%auditEvery == 0)
	if cl := c.net.closed; cl != nil {
		c.checkWindows(cl)
	}
	if c.opt.StallBound > 0 {
		c.checkProgress()
	}
	if c.opt.RecoveryBound > 0 && c.net.now%oracleEvery == 0 {
		c.checkRecoveryBound()
	}
}

// pass runs the structural rules, as the audit or the delta pass, and ends
// on flit conservation over sums it took itself, not the engine's counters.
func (c *InvariantChecker) pass(audit bool) {
	n := c.net
	if audit {
		held := 0 // pooled packets out, counted by their tails (see auditBooks)
		c.countWheel()
		for _, slot := range n.wheel {
			for _, t := range slot {
				held += pooledTail(t.flit)
			}
		}
		for _, r := range n.routers {
			for s := range r.vcFlat {
				v := &r.vcFlat[s]
				c.lookVC(v, allRules)
				for _, f := range v.buf {
					held += pooledTail(f)
				}
			}
			c.begin(len(c.inflight)+r.ID, allRules)
			if r.active() && !n.awake.has(r.ID) {
				c.flag(RuleWorklist, "r%d is active but not in the awake set", r.ID)
			}
		}
		// A loaded NIC is busy; a sleeper is also between packets, all VCs full.
		for t, nic := range n.nics {
			c.begin(len(c.inflight)+len(n.routers)+t, allRules)
			busy := n.nicBusy.has(t)
			if (nic.cur != nil || nic.QueueLen() > 0) && !busy {
				c.flag(RuleWorklist, "terminal %d has %d packets queued (mid-injection: %v) but is not in the busy set", t, nic.QueueLen(), nic.cur != nil)
			}
			if !n.nicBlocked.has(t) {
				continue
			}
			if nic.cur != nil || nic.QueueLen() == 0 || !busy {
				c.flag(RuleWorklist, "terminal %d sleeps in the blocked set with %d packets queued (mid-injection: %v, busy: %v)", t, nic.QueueLen(), nic.cur != nil, busy)
				continue
			}
			q := nic.frontRec()
			vcs := nic.router.in[nic.port][int(q.vnet)*n.cfg.VCsPerVNet:][:n.cfg.VCsPerVNet]
			for k := range vcs {
				if v := &vcs[k]; v.CanAccept(int(q.length)) {
					c.flag(RuleWorklist, "terminal %d sleeps in the blocked set but r%d p%d vc%d has room for its next packet", t, v.router.ID, v.port, v.index)
					break
				}
			}
		}
		c.auditBooks(held)
	} else {
		c.countWheel()
		for _, v := range n.dirtyVCs {
			c.lookVC(v, allRules)
		}
		for _, v := range c.touched {
			if !c.seen[v.router.ID].has(int(v.slot)) {
				c.lookVC(v, allRules)
			}
		}
		for _, r := range n.routers {
			for w, word := range r.occ {
				for word &^= c.seen[r.ID][w]; word != 0; word &= word - 1 {
					v := &r.vcFlat[w<<6+bits.TrailingZeros64(word)]
					c.buffered += len(v.buf)
					c.lookVC(v, worklistOnly)
				}
			}
		}
	}
	inTransit := 0
	for _, v := range c.touched {
		i := n.vcIndex(v)
		inTransit, c.inflight[i] = inTransit+int(c.inflight[i]), 0
	}
	c.begin(len(c.failing)-1, allRules)
	if inside := n.stats.InjectedFlits - n.stats.EjectedFlits; inside != int64(c.buffered+inTransit) {
		c.flag(RuleConservation, "injected-ejected=%d but buffered=%d + in-transit=%d", inside, c.buffered, inTransit)
	}
	c.touched, c.buffered = c.touched[:0], 0
	for _, s := range c.seen {
		clear(s)
	}
}

// pooledTail is 1 for the tail flit of a pooled packet, else 0: a pooled
// packet is out of the free list until its tail is ejected.
func pooledTail(f Flit) int {
	if f.Pkt.pooled && f.IsTail() {
		return 1
	}
	return 0
}

// auditBooks recounts the three tallies the engine keeps without looking:
// the queued-packet counter, against the NICs' queues; the packet pool's
// packets out, against the ones held — heldInNetwork by a tail flit in a VC
// or on a link, the rest by a NIC, as the packet it is injecting or its
// materialised front; and the record blocks carved but off the free list,
// against the blocks the NICs' backlogs hold. Each book is an entity of its
// own, so a drift in one does not hide a later one in another.
func (c *InvariantChecker) auditBooks(heldInNetwork int) {
	n := c.net
	queued, held, blocks := 0, heldInNetwork, 0
	for _, nic := range n.nics {
		queued += nic.QueueLen()
		for _, p := range [...]*Packet{nic.cur, nic.front} {
			if p != nil && p.pooled {
				held++
			}
		}
		for b := nic.head; b != nil; b = b.next {
			blocks++
		}
	}
	c.begin(len(c.failing)-4, allRules)
	if queued != n.queuedPackets {
		c.flag(RuleConservation, "the source queues hold %d packets but the queued count is %d", queued, n.queuedPackets)
	}
	c.begin(len(c.failing)-3, allRules)
	if out := len(n.pktChunks)*pktChunk - len(n.pktPool); out != held {
		c.flag(RuleConservation, "%d pooled packets are off the free list but %d are held", out, held)
	}
	c.begin(len(c.failing)-2, allRules)
	carved, free := len(n.blockChunks)*blockChunk, 0
	for b := n.freeBlocks; b != nil && free <= carved; b = b.next { // bounded: a cycle is a drift too
		free++
	}
	if out := carved - free; out != blocks {
		c.flag(RuleConservation, "%d record blocks are off the free list but the source queues hold %d", out, blocks)
	}
}

// countWheel adds the flits on the arrival wheel to the in-flight counts of
// the VCs they head for.
func (c *InvariantChecker) countWheel() {
	for _, slot := range c.net.wheel {
		for _, t := range slot {
			i := c.net.vcIndex(t.dst)
			if c.inflight[i]++; c.inflight[i] == 1 {
				c.touched = append(c.touched, t.dst)
			}
		}
	}
}

// lookVC runs v's rules: all, or off the change set the worklist bits alone
// (routeStage clears needRoute by the word, a VC freed downstream blocked).
func (c *InvariantChecker) lookVC(v *VC, covered uint8) {
	c.begin(c.net.vcIndex(v), covered)
	if covered == allRules {
		c.seen[v.router.ID].set(int(v.slot))
		c.buffered += len(v.buf)
		c.checkCredit(v)
		c.checkFIFO(v)
	}
	c.checkWorklistBits(v)
}

// checkWorklistBits audits v's bits in its router's worklists: Step visits
// only what they name, so a clear bit over live state is work never done.
// Between steps an occ bit must equal "VC holds a flit", an inFree bit the
// snapshot predicate it caches, a needRoute bit "the front flit is an unrouted
// head". In the sleep sets (blocked; nicBlocked) a set bit must still be owed.
func (c *InvariantChecker) checkWorklistBits(v *VC) {
	r, slot := v.router, int(v.slot)
	if bit := r.occ.has(slot); bit != (len(v.buf) > 0) {
		c.flagVC(v, RuleWorklist, "holds %d flits but its occupied bit is %v", len(v.buf), bit)
	}
	if bit := r.inFree.has(v.freeBit()); bit != v.snapAllocatable() {
		c.flagVC(v, RuleWorklist, "snapshot is reserved=%v free=%d but its free bit is %v", v.is(vcSnapResv), v.snapFree, bit)
	}
	if bit := r.needRoute.has(slot); bit != v.unroutedHead() {
		c.flagVC(v, RuleWorklist, "(%d flits, routed=%v) has its route-request bit %v", len(v.buf), v.is(vcRouted), bit)
	}
	if r.blocked.has(slot) {
		if why := blockedUnowed(v); why != "" {
			c.flagVC(v, RuleWorklist, "sleeps in the blocked set but %s", why)
		}
	}
}

// blockedUnowed says why v should not be in its router's blocked set, or
// "" when its sleep is owed: it fronts a routed, ungranted head that asks
// for no ejection and has no admissible free VC behind any link it asks
// for.
func blockedUnowed(v *VC) string {
	r := v.router
	switch {
	case len(v.buf) == 0:
		return "is empty"
	case !v.is(vcRouted) || !v.buf[0].IsHead():
		return "has no routed head at its front"
	case v.target != nil || v.outPort >= 0:
		return "holds a grant"
	}
	base := v.buf[0].Pkt.VNet * r.net.cfg.VCsPerVNet
	for _, req := range v.reqs {
		if req.Port < r.localPorts {
			return "asks for ejection"
		}
		if r.outLink[req.Port] != nil && r.freeVCs(req.Port, base, req.VCMask) != 0 {
			return fmt.Sprintf("output %d has a free VC it may take (a wake was dropped)", req.Port)
		}
	}
	return ""
}

// checkCredit audits v's credit accounting against its buffer and the links.
func (c *InvariantChecker) checkCredit(v *VC) {
	if len(v.buf) > v.Depth() {
		c.flagVC(v, RuleCredit, "holds %d flits, depth %d", len(v.buf), v.Depth())
	}
	if v.inFlight < 0 {
		c.flagVC(v, RuleCredit, "negative in-flight count %d", v.inFlight)
	}
	if v.FreeSlots() < 0 {
		// Holds even mid-spin: the forced drain vacates exactly one slot
		// per forced send, so len+inFlight never exceeds the depth.
		c.flagVC(v, RuleCredit, "free slots %d (len=%d inFlight=%d depth=%d)", v.FreeSlots(), len(v.buf), v.inFlight, v.Depth())
	}
	if got := int(c.inflight[c.ent]); got != int(v.inFlight) {
		c.flagVC(v, RuleCredit, "records %d in-flight flits, links carry %d", v.inFlight, got)
	}
}

// checkFIFO audits the VCT interleave contract (at most two packets,
// interleaved only as old-tail + new-head) and reservation consistency.
func (c *InvariantChecker) checkFIFO(v *VC) {
	// Partition the FIFO into per-packet runs, checking seq contiguity.
	runs := c.runs[:0]
	for _, f := range v.buf {
		if k := len(runs) - 1; k >= 0 && runs[k].pkt == f.Pkt {
			if f.Seq != runs[k].end+1 {
				c.flagVC(v, RuleVCTOrder, "packet %d flit seq %d follows %d", f.Pkt.ID, f.Seq, runs[k].end)
			}
			runs[k].end = f.Seq
			continue
		}
		for _, prev := range runs {
			if prev.pkt == f.Pkt {
				c.flagVC(v, RuleVCTInterleave, "flits of packet %d split by another packet", f.Pkt.ID)
			}
		}
		runs = append(runs, pktRun{f.Pkt, f.Seq, f.Seq})
	}
	c.runs = runs

	switch len(runs) {
	case 0:
		// Empty VC: an owner with no flits buffered or in flight would be
		// a leak, except mid-stream cut-through (the packet's remaining
		// flits are still upstream) — not distinguishable locally, so only
		// the buffered cases are asserted.
	case 1:
		// The single resident must own the VC unless it is the draining
		// old packet of a spin whose successor is still on the wire.
		if v.resvOwner == nil {
			c.flagVC(v, RuleReservation, "buffers packet %d but has no reservation owner", runs[0].pkt.ID)
		} else if v.resvOwner != runs[0].pkt && v.inFlight == 0 {
			c.flagVC(v, RuleReservation, "owned by packet %d but buffers only packet %d with nothing in flight", v.resvOwner.ID, runs[0].pkt.ID)
		}
	case 2:
		// The spin overlap: the old resident's draining tail ahead of the
		// new owner's arriving head.
		old, new := runs[0], runs[1]
		if old.end != old.pkt.Length-1 {
			c.flagVC(v, RuleVCTInterleave, "old packet %d truncated at seq %d (length %d) ahead of packet %d", old.pkt.ID, old.end, old.pkt.Length, new.pkt.ID)
		}
		if new.start != 0 {
			c.flagVC(v, RuleVCTInterleave, "new packet %d starts at seq %d, not its head", new.pkt.ID, new.start)
		}
		if v.resvOwner != new.pkt {
			c.flagVC(v, RuleReservation, "interleaves packets %d+%d but owner is %v", old.pkt.ID, new.pkt.ID, v.resvOwner)
		}
	default:
		c.flagVC(v, RuleVCTInterleave, "holds %d distinct packets (VCT allows 2)", len(runs))
	}
}

// onEject audits a fully delivered packet: exactly-once delivery and the
// hop bound (each productive hop reduces the phase-local distance, each
// misroute raises the remaining budget by at most one, over at most two
// routing phases).
func (c *InvariantChecker) onEject(p *Packet) {
	var dup bool
	terms := uint64(len(c.net.nics))
	if i := p.ID - 1; i/terms < uint64(c.net.nics[i%terms].pktSeq) {
		for int(i>>6) >= len(c.delivered) {
			c.delivered = append(c.delivered, make(bitset, len(c.delivered)+64)...)
		}
		dup = c.delivered.has(int(i))
		c.delivered.set(int(i))
	} else {
		_, dup = c.foreign[p.ID]
		c.foreign[p.ID] = struct{}{}
	}
	if dup {
		c.report(RuleDelivery, "packet %d delivered twice", p.ID)
	}
	if c.diameter < 0 {
		c.diameter = c.net.cfg.Topology.Diameter()
	}
	if bound := 2*c.diameter + hopSlack; p.Hops-2*p.Misroutes > bound {
		c.report(RuleHopBound, "packet %d took %d hops with %d misroutes (bound %d, diameter %d)", p.ID, p.Hops, p.Misroutes, bound, c.diameter)
	}
}

// checkWindows audits a closed-loop generator's finite-window contract:
// every terminal's outstanding count stays within [0, W], and the
// generator's own request/reply bookkeeping balances (a reply that
// matches no issued request, or completions exceeding issues, surfaces
// through AuditWindows). Runs every cycle.
func (c *InvariantChecker) checkWindows(wt ClosedLoopTraffic) {
	w := wt.WindowLimit()
	for t := range c.net.nics {
		if o := wt.Outstanding(t); o < 0 || o > w {
			c.report(RuleWindow, "terminal %d has %d outstanding requests, window %d", t, o, w)
		}
	}
	if err := wt.AuditWindows(); err != nil && !c.windowAuditReported {
		c.windowAuditReported = true
		c.report(RuleWindow, "%v", err)
	}
}

// checkProgress enforces the forward-progress bound: no VC's front flit
// may sit unchanged for more than StallBound cycles.
func (c *InvariantChecker) checkProgress() {
	now := c.net.now
	for _, r := range c.net.routers {
		total := len(r.vcFlat)
		for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
			v := &r.vcFlat[slot]
			f := v.buf[0]
			s := &c.stalls[c.net.vcIndex(v)]
			stalled := s.age(now, now-1, wait{pktID: f.Pkt.ID, frontSeq: f.Seq, bufLen: len(v.buf)})
			c.maxStall = max(c.maxStall, stalled)
			if stalled > c.opt.StallBound && !s.reported {
				s.reported = true
				c.report(RuleProgress, "r%d p%d vc%d front flit (packet %d seq %d) stuck for %d cycles (bound %d, frozen=%v)",
					v.router.ID, v.port, v.index, f.Pkt.ID, f.Seq, stalled, c.opt.StallBound, v.Frozen())
			}
		}
	}
}

// checkRecoveryBound samples the global deadlock oracle and enforces that
// no VC stays continuously deadlocked (same resident packet) for more
// than RecoveryBound cycles — the distributed detection and recovery
// machinery must agree with the oracle and clear the deadlock in time.
func (c *InvariantChecker) checkRecoveryBound() {
	now := c.net.now
	c.dlBuf = c.net.findDeadlock(c.dlBuf[:0])
	if len(c.dlBuf) > 0 {
		c.oracleFirings++
		if c.net.wants(EvOracleDeadlock) {
			k := c.dlBuf[0]
			c.net.emit(Event{Cycle: now, Kind: EvOracleDeadlock, Router: k.Router,
				Port: k.Port, VC: k.Index, Arg: int64(len(c.dlBuf))})
		}
	}
	for _, k := range c.dlBuf {
		v := &c.net.routers[k.Router].in[k.Port][k.Index]
		p := v.FrontPacket()
		// The checker runs every cycle: the last sample was oracleEvery ago.
		s := &c.spells[c.net.vcIndex(v)]
		spell := s.age(now, now-oracleEvery, wait{pktID: p.ID})
		c.maxSpell = max(c.maxSpell, spell)
		if spell > c.opt.RecoveryBound && !s.reported {
			s.reported = true
			c.report(RuleRecovery, "r%d p%d vc%d (packet %d) deadlocked for %d cycles (bound %d)",
				k.Router, k.Port, k.Index, p.ID, spell, c.opt.RecoveryBound)
		}
	}
}
