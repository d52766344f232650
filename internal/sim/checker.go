package sim

import "fmt"

// The invariant checker is the runtime counterpart of the static CDG
// analysis: an always-on observer that asserts, every cycle, the
// structural contracts the simulator's correctness argument rests on —
// flit conservation, credit/free-slot accounting, the virtual cut-through
// interleave contract, reservation consistency, exactly-once delivery,
// hop bounds, and the SPIN liveness bounds (no VC stalls forever; no
// oracle-visible deadlock survives past the recovery bound). The fuzzing
// harness in internal/harness attaches one to every generated scenario;
// tests attach one to hand-built networks via Network.AttachChecker or
// ask for a one-shot sweep via Network.CheckStructural.

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
	RuleConservation  = "conservation"   // injected - ejected != flits in buffers + links
	RuleCredit        = "credit"         // buffer occupancy / free-slot / in-flight accounting broken
	RuleVCTOrder      = "vct_order"      // flit sequence numbers not contiguous within a packet
	RuleVCTInterleave = "vct_interleave" // more than two packets, or not old-tail + new-head
	RuleReservation   = "reservation"    // VC allocation state inconsistent with buffered flits
	RuleDelivery      = "delivery"       // packet delivered more than once
	RuleHopBound      = "hop_bound"      // packet took more hops than the routing bound allows
	RuleProgress      = "progress"       // a VC's front flit made no progress for StallBound cycles
	RuleRecovery      = "recovery_bound" // oracle-visible deadlock outlived RecoveryBound cycles
	RuleWindow        = "window"         // closed-loop window accounting broken (outstanding outside [0,W], unmatched reply, drain residue)
	RuleWorklist      = "worklist"       // an engine worklist bitset disagrees with the state it indexes (a missed wake-up is a silent stall)
)

// CheckOptions configures an InvariantChecker. The zero value enables the
// per-cycle structural checks (conservation, credit, VCT, reservation,
// delivery, hop bound) and disables the liveness bounds.
type CheckOptions struct {
	// Every is the structural sweep interval in cycles (default 1: every
	// cycle). Raising it trades detection latency for speed on big runs.
	Every int64
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
	// OracleEvery is the FindDeadlock sampling interval backing the
	// RecoveryBound check (default 16).
	OracleEvery int64
	// HopSlack loosens the hop bound (default 4): a packet must satisfy
	// Hops - 2*Misroutes <= 2*diameter + HopSlack.
	HopSlack int
	// MaxViolations caps recorded violations (default 64); checking
	// continues but further violations only bump a counter.
	MaxViolations int
}

func (o *CheckOptions) setDefaults() {
	if o.Every <= 0 {
		o.Every = 1
	}
	if o.OracleEvery <= 0 {
		o.OracleEvery = 16
	}
	if o.HopSlack == 0 {
		o.HopSlack = 4
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 64
	}
}

// stallState tracks one VC's front flit across cycles for the
// forward-progress bound. Only occupied VCs are visited, so seen — the
// cycle, plus one, of the last visit — tells a continuing wait from a
// packet re-entering a VC it left (a misroute), which starts afresh.
type stallState struct {
	pktID    uint64
	frontSeq int
	bufLen   int
	since    int64
	seen     int64
	reported bool
}

// dlSpell tracks one continuously-deadlocked VC across oracle samples.
type dlSpell struct {
	pktID    uint64
	since    int64
	reported bool
}

// InvariantChecker observes a Network and records invariant violations.
// Attach one with Network.AttachChecker before running.
type InvariantChecker struct {
	net *Network
	opt CheckOptions

	diameter   int
	violations []Violation
	dropped    int64 // violations beyond MaxViolations

	delivered map[uint64]struct{}
	stalls    [][]stallState // [router][VC slot]
	spells    map[DeadlockedVC]*dlSpell

	// Reusable scratch state.
	inflight map[*VC]int
	runPkts  []*Packet
	dlBuf    []DeadlockedVC

	maxStall      int64 // longest no-progress interval observed on any VC
	maxSpell      int64 // longest continuous oracle-deadlock spell observed
	oracleFirings int64 // oracle samples that found >= 1 deadlocked VC

	// windowAuditReported dedupes the sticky AuditWindows error — the
	// generator repeats its first failure forever, one report suffices.
	windowAuditReported bool
}

func newChecker(n *Network, opt CheckOptions) *InvariantChecker {
	opt.setDefaults()
	c := &InvariantChecker{
		net:       n,
		opt:       opt,
		diameter:  networkDiameter(n),
		delivered: make(map[uint64]struct{}),
		spells:    make(map[DeadlockedVC]*dlSpell),
		inflight:  make(map[*VC]int),
	}
	if opt.StallBound > 0 {
		c.stalls = make([][]stallState, len(n.routers))
		for i, r := range n.routers {
			c.stalls[i] = make([]stallState, len(r.vcFlat))
		}
	}
	return c
}

// networkDiameter computes the router-graph diameter for the hop bound,
// using the topology's own Diameter when it has one.
func networkDiameter(n *Network) int {
	if d, ok := n.cfg.Topology.(interface{ Diameter() int }); ok {
		return d.Diameter()
	}
	max := 0
	routers := n.cfg.Topology.NumRouters()
	for a := 0; a < routers; a++ {
		for b := 0; b < routers; b++ {
			if d := n.cfg.Topology.Distance(a, b); d > max {
				max = d
			}
		}
	}
	return max
}

// AttachChecker installs an invariant checker that sweeps the network
// every cycle (per opts) and audits every delivery. At most one checker
// may be attached; attaching replaces any previous one.
func (n *Network) AttachChecker(opt CheckOptions) *InvariantChecker {
	c := newChecker(n, opt)
	n.checker = c
	return c
}

// Checker returns the attached invariant checker, or nil.
func (n *Network) Checker() *InvariantChecker { return n.checker }

// CheckStructural runs one structural invariant sweep (conservation,
// credit accounting, VCT interleave, reservation consistency) against the
// network's instantaneous state and returns any violations. It does not
// attach anything; tests use it to audit hand-built networks mid-run.
func (n *Network) CheckStructural() []Violation {
	c := newChecker(n, CheckOptions{})
	c.sweep()
	return c.violations
}

// Violations returns the recorded violations (nil when the run is clean).
func (c *InvariantChecker) Violations() []Violation { return c.violations }

// Err summarises the violations as an error, nil when clean.
func (c *InvariantChecker) Err() error {
	if len(c.violations) == 0 {
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
	if len(c.violations) >= c.opt.MaxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Cycle:  c.net.now,
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	})
	// First violation freezes the flight recorder (no-op when none is
	// attached): the ring and VC chain at the moment of failure are the
	// forensics artifact.
	c.net.CaptureForensics(rule)
}

// endOfStep runs at the end of Network.Step, after switch allocation.
func (c *InvariantChecker) endOfStep() {
	if c.net.now%c.opt.Every == 0 {
		c.sweep()
		if wt, ok := c.net.cfg.Traffic.(WindowedTraffic); ok {
			c.checkWindows(wt)
		}
	}
	if c.opt.StallBound > 0 {
		c.checkProgress()
	}
	if c.opt.RecoveryBound > 0 && c.net.now%c.opt.OracleEvery == 0 {
		c.checkRecoveryBound()
	}
}

// sweep audits conservation plus every VC's structural state.
func (c *InvariantChecker) sweep() {
	n := c.net
	clear(c.inflight)
	inTransit := 0
	for _, l := range n.links {
		inTransit += len(l.flits)
		for _, t := range l.flits {
			c.inflight[t.dst]++
		}
	}
	buffered := 0
	for _, r := range n.routers {
		r.ForEachVC(func(v *VC) {
			buffered += len(v.buf)
			c.checkVC(v)
		})
	}
	if inside := n.stats.InjectedFlits - n.stats.EjectedFlits; inside != int64(buffered+inTransit) {
		c.report(RuleConservation, "injected-ejected=%d but buffered=%d + in-transit=%d", inside, buffered, inTransit)
	}
	c.checkWorklists()
}

// checkWorklists audits the engine's worklist bitsets: Step visits only
// what they name, so a clear bit over live state is work silently never
// done. Between steps an occ bit must equal "VC holds a flit", an inFree
// bit the snapshot predicate it caches, a needRoute bit "the front flit is
// an unrouted head", and every active() router and every loaded NIC must be
// in the network's set (a set bit over idle state is merely retired at the
// next visit). The two sleep sets err the other way — a set bit is a turn
// never taken — so each of their bits must still be owed its sleep.
func (c *InvariantChecker) checkWorklists() {
	n := c.net
	for _, r := range n.routers {
		for slot, v := range r.vcFlat {
			if bit := r.occ.has(slot); bit != (len(v.buf) > 0) {
				c.report(RuleWorklist, "r%d p%d vc%d holds %d flits but its occupied bit is %v", r.ID, v.port, v.index, len(v.buf), bit)
			}
			if bit := r.inFree.has(v.freeBit()); bit != v.snapAllocatable() {
				c.report(RuleWorklist, "r%d p%d vc%d snapshot is reserved=%v free=%d but its free bit is %v", r.ID, v.port, v.index, v.snapResv, v.snapFree, bit)
			}
			if bit := r.needRoute.has(slot); bit != v.unroutedHead() {
				c.report(RuleWorklist, "r%d p%d vc%d (%d flits, routed=%v) has its route-request bit %v", r.ID, v.port, v.index, len(v.buf), v.routed, bit)
			}
			if r.blocked.has(slot) {
				if why := blockedUnowed(v); why != "" {
					c.report(RuleWorklist, "r%d p%d vc%d sleeps in the blocked set but %s", r.ID, v.port, v.index, why)
				}
			}
		}
		if r.active() && !n.awake.has(r.ID) {
			c.report(RuleWorklist, "r%d is active but not in the awake set", r.ID)
		}
	}
	for t, nic := range n.nics {
		if (nic.cur != nil || nic.QueueLen() > 0) && !n.nicBusy.has(t) {
			c.report(RuleWorklist, "terminal %d has %d packets queued (mid-injection: %v) but is not in the busy set", t, nic.QueueLen(), nic.cur != nil)
		}
		if !n.nicBlocked.has(t) {
			continue
		}
		if nic.cur != nil || nic.QueueLen() == 0 || !n.nicBusy.has(t) {
			c.report(RuleWorklist, "terminal %d sleeps in the blocked set with %d packets queued (mid-injection: %v, busy: %v)", t, nic.QueueLen(), nic.cur != nil, n.nicBusy.has(t))
			continue
		}
		p := nic.queue[nic.head]
		for _, v := range nic.router.in[nic.port][p.VNet*n.cfg.VCsPerVNet:][:n.cfg.VCsPerVNet] {
			if v.CanAccept(p.Length) {
				c.report(RuleWorklist, "terminal %d sleeps in the blocked set but r%d p%d vc%d has room for its next packet", t, v.router.ID, v.port, v.index)
				break
			}
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
	case !v.routed || !v.buf[0].IsHead():
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

// checkVC audits one VC: credit accounting, the VCT interleave contract
// (at most two packets, interleaved only as old-tail + new-head), and
// reservation consistency.
func (c *InvariantChecker) checkVC(v *VC) {
	if len(v.buf) > v.depth {
		c.report(RuleCredit, "r%d p%d vc%d holds %d flits, depth %d", v.router.ID, v.port, v.index, len(v.buf), v.depth)
	}
	if v.inFlight < 0 {
		c.report(RuleCredit, "r%d p%d vc%d negative in-flight count %d", v.router.ID, v.port, v.index, v.inFlight)
	}
	if v.FreeSlots() < 0 {
		// Holds even mid-spin: the forced drain vacates exactly one slot
		// per forced send, so len+inFlight never exceeds the depth.
		c.report(RuleCredit, "r%d p%d vc%d free slots %d (len=%d inFlight=%d depth=%d)",
			v.router.ID, v.port, v.index, v.FreeSlots(), len(v.buf), v.inFlight, v.depth)
	}
	if got := c.inflight[v]; got != v.inFlight {
		c.report(RuleCredit, "r%d p%d vc%d records %d in-flight flits, links carry %d", v.router.ID, v.port, v.index, v.inFlight, got)
	}

	// Partition the FIFO into per-packet runs, checking seq contiguity.
	c.runPkts = c.runPkts[:0]
	var runStart []int // first seq of each run
	var runEnd []int   // last seq of each run
	for _, f := range v.buf {
		k := len(c.runPkts) - 1
		if k >= 0 && c.runPkts[k] == f.Pkt {
			if f.Seq != runEnd[k]+1 {
				c.report(RuleVCTOrder, "r%d p%d vc%d packet %d flit seq %d follows %d", v.router.ID, v.port, v.index, f.Pkt.ID, f.Seq, runEnd[k])
			}
			runEnd[k] = f.Seq
			continue
		}
		for _, prev := range c.runPkts {
			if prev == f.Pkt {
				c.report(RuleVCTInterleave, "r%d p%d vc%d flits of packet %d split by another packet", v.router.ID, v.port, v.index, f.Pkt.ID)
			}
		}
		c.runPkts = append(c.runPkts, f.Pkt)
		runStart = append(runStart, f.Seq)
		runEnd = append(runEnd, f.Seq)
	}

	switch len(c.runPkts) {
	case 0:
		// Empty VC: an owner with no flits buffered or in flight would be
		// a leak, except mid-stream cut-through (the packet's remaining
		// flits are still upstream) — not distinguishable locally, so only
		// the buffered cases are asserted.
	case 1:
		// The single resident must own the VC unless it is the draining
		// old packet of a spin whose successor is still on the wire.
		if v.resvOwner == nil {
			c.report(RuleReservation, "r%d p%d vc%d buffers packet %d but has no reservation owner", v.router.ID, v.port, v.index, c.runPkts[0].ID)
		} else if v.resvOwner != c.runPkts[0] && v.inFlight == 0 {
			c.report(RuleReservation, "r%d p%d vc%d owned by packet %d but buffers only packet %d with nothing in flight",
				v.router.ID, v.port, v.index, v.resvOwner.ID, c.runPkts[0].ID)
		}
	case 2:
		// The spin overlap: the old resident's draining tail ahead of the
		// new owner's arriving head.
		oldPkt, newPkt := c.runPkts[0], c.runPkts[1]
		if runEnd[0] != oldPkt.Length-1 {
			c.report(RuleVCTInterleave, "r%d p%d vc%d old packet %d truncated at seq %d (length %d) ahead of packet %d",
				v.router.ID, v.port, v.index, oldPkt.ID, runEnd[0], oldPkt.Length, newPkt.ID)
		}
		if runStart[1] != 0 {
			c.report(RuleVCTInterleave, "r%d p%d vc%d new packet %d starts at seq %d, not its head", v.router.ID, v.port, v.index, newPkt.ID, runStart[1])
		}
		if v.resvOwner != newPkt {
			c.report(RuleReservation, "r%d p%d vc%d interleaves packets %d+%d but owner is %v", v.router.ID, v.port, v.index, oldPkt.ID, newPkt.ID, v.resvOwner)
		}
	default:
		c.report(RuleVCTInterleave, "r%d p%d vc%d holds %d distinct packets (VCT allows 2)", v.router.ID, v.port, v.index, len(c.runPkts))
	}
}

// onEject audits a fully delivered packet: exactly-once delivery and the
// hop bound (each productive hop reduces the phase-local distance, each
// misroute raises the remaining budget by at most one, over at most two
// routing phases).
func (c *InvariantChecker) onEject(p *Packet) {
	if _, dup := c.delivered[p.ID]; dup {
		c.report(RuleDelivery, "packet %d delivered twice", p.ID)
	}
	c.delivered[p.ID] = struct{}{}
	if bound := 2*c.diameter + c.opt.HopSlack; p.Hops-2*p.Misroutes > bound {
		c.report(RuleHopBound, "packet %d took %d hops with %d misroutes (bound %d, diameter %d)", p.ID, p.Hops, p.Misroutes, bound, c.diameter)
	}
}

// checkWindows audits a closed-loop generator's finite-window contract:
// every terminal's outstanding count stays within [0, W], and the
// generator's own request/reply bookkeeping balances (a reply that
// matches no issued request, or completions exceeding issues, surfaces
// through AuditWindows). Runs on the sweep cadence.
func (c *InvariantChecker) checkWindows(wt WindowedTraffic) {
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
	for i, r := range c.net.routers {
		total := len(r.vcFlat)
		for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
			v := r.vcFlat[slot]
			f := v.buf[0]
			s := &c.stalls[i][slot]
			fresh := s.seen != now || s.pktID != f.Pkt.ID || s.frontSeq != f.Seq || s.bufLen != len(v.buf)
			s.seen = now + 1
			if fresh {
				s.pktID, s.frontSeq, s.bufLen, s.since, s.reported = f.Pkt.ID, f.Seq, len(v.buf), now, false
				continue
			}
			if stalled := now - s.since; stalled > c.maxStall {
				c.maxStall = stalled
			}
			if now-s.since > c.opt.StallBound && !s.reported {
				s.reported = true
				c.report(RuleProgress, "r%d p%d vc%d front flit (packet %d seq %d) stuck for %d cycles (bound %d, frozen=%v)",
					v.router.ID, v.port, v.index, f.Pkt.ID, f.Seq, now-s.since, c.opt.StallBound, v.frozen)
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
	c.dlBuf = c.net.FindDeadlock()
	if len(c.dlBuf) > 0 {
		c.oracleFirings++
		if c.net.wants(EvOracleDeadlock) {
			k := c.dlBuf[0]
			c.net.emit(Event{Cycle: now, Kind: EvOracleDeadlock, Router: k.Router,
				Port: k.Port, VC: k.Index, Arg: int64(len(c.dlBuf))})
		}
	}
	current := make(map[DeadlockedVC]bool, len(c.dlBuf))
	for _, k := range c.dlBuf {
		current[k] = true
		v := c.net.routers[k.Router].in[k.Port][k.Index]
		p := v.FrontPacket()
		if p == nil {
			continue
		}
		s := c.spells[k]
		if s == nil || s.pktID != p.ID {
			c.spells[k] = &dlSpell{pktID: p.ID, since: now}
			continue
		}
		if spell := now - s.since; spell > c.maxSpell {
			c.maxSpell = spell
		}
		if now-s.since > c.opt.RecoveryBound && !s.reported {
			s.reported = true
			c.report(RuleRecovery, "r%d p%d vc%d (packet %d) deadlocked for %d cycles (bound %d)",
				k.Router, k.Port, k.Index, p.ID, now-s.since, c.opt.RecoveryBound)
		}
	}
	for k := range c.spells {
		if !current[k] {
			delete(c.spells, k)
		}
	}
}
