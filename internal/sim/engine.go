package sim

import (
	"fmt"
	"math/bits"
)

// The cycle engine. A cycle is two phases and a commit, and the split is
// the cycle-accurate model, not an execution strategy: every router acts
// in a cycle on what its neighbours looked like at the end of the last
// one, whichever router the walk happens to reach first.
//
//   - Phase 1: deliver link arrivals into input VCs and agent inboxes —
//     the flits as one slot of the network's arrival wheel, the SMs from
//     the links that carry them — give a traffic turn to each terminal
//     whose source asked for this cycle (each on its private RNG stream),
//     inject NIC flits, and publish agent views.
//   - Phase 2: one visit per active router, in ascending order, running
//     its route computation, agent tick, spin claims and SM arbitration,
//     spin transmission and switch allocation back to back. A router's
//     effects on another router's state — VC reservations, in-flight
//     credits, ejection observers — are buffered instead of applied.
//   - Commit: force reservations, then grants, in-flight credits, VC
//     snapshot refresh, ejection observer replay, checker, telemetry.
//
// The contract: every cross-router read in phase 2 goes through state
// frozen before it — VC snapshots refreshed at the previous commit, agent
// views published at the end of phase 1 — and every cross-router write is
// buffered to commit. Phase 2 is therefore independent of the order its
// routers are visited in; TestPhase2OrderInvariance permutes the order and
// fails on a live cross-router read from any stage.

// bitset is the engine's worklist: one bit per entity of a population,
// walked in ascending order a word at a time with bits.TrailingZeros64,
// so entities with nothing to do cost nothing.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]>>uint(i&63)&1 != 0 }

// window32 returns bits [i, i+32) of b as a word, zero past its end.
func (b bitset) window32(i int) uint32 {
	w, o := i>>6, uint(i&63)
	x := b[w] >> o
	if o > 32 && w+1 < len(b) {
		x |= b[w+1] << (64 - o)
	}
	return uint32(x)
}

// resvOp is a deferred downstream-VC reservation. Normal reservations
// (switch allocation grants) are unique per VC per cycle — each input
// port is fed by exactly one link and each output port sends at most one
// head per cycle — so their commit order is irrelevant. Force
// reservations (spin targets) are applied first; a normal reservation
// finding the VC already owned then stands down in favor of the spin.
type resvOp struct {
	dvc   *VC
	pkt   *Packet
	force bool
}

// ejectRec is a fully ejected packet awaiting commit's replay of its
// observers (telemetry, events, closed-loop source, invariant checker,
// pool recycle).
type ejectRec struct {
	p        *Packet
	lat      int64
	measured bool
}

// allocSM pulls a recycled special message from the free list (keeping its
// Path capacity) or allocates a fresh one.
func (n *Network) allocSM() *SM {
	if k := len(n.smPool); k > 0 {
		sm := n.smPool[k-1]
		n.smPool[k-1] = nil
		n.smPool = n.smPool[:k-1]
		path := sm.Path[:0]
		*sm = SM{Path: path, pooled: true}
		return sm
	}
	return &SM{pooled: true}
}

// freeSM returns a pool-owned SM to the free list. SMs built directly by
// tests (composite literals) are left to the garbage collector.
func (n *Network) freeSM(sm *SM) {
	if sm == nil || !sm.pooled {
		return
	}
	n.smPool = append(n.smPool, sm)
}

// turnSlots is the turn wheel's size in cycles, a power of two; turns
// named further ahead wait among the far turns, which a new lap of the
// wheel sorts through. turnHorizon is how far ahead a source may settle
// turns (Generate's limit): far enough that a call at the paper's low loads
// settles tens of cycles, so that the far turns, not the wheel, carry most
// of a terminal's wait, and the wheel stays a few words per 64 terminals.
const (
	turnSlots   = 16
	turnHorizon = 64
)

// phase1 delivers arrivals, generates and injects traffic, and publishes
// agent views.
func (n *Network) phase1() {
	n.deliverArrivals()
	if n.cfg.Traffic != nil {
		n.takeTurns()
	}
	for w, word := range n.nicBusy {
		word &^= n.nicBlocked[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			nic := n.nics[w*64+b]
			nic.injectStep(n)
			if nic.cur == nil && nic.size == 0 {
				n.nicBusy.clear(w*64 + b)
			}
		}
	}
	// Agent views are published after every SM delivery and injection of
	// the cycle, so phase-2 readers observe one consistent, pre-Tick
	// snapshot. Only awake routers can have one to publish: an agent's
	// follower state changes in HandleSM (which wakes the router) or in its
	// own Tick (whose router stays awake through this phase).
	for w, word := range n.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if a := n.routers[w*64+b].agent; a != nil {
				a.PublishView()
			}
		}
	}
}

// takeTurns gives a traffic turn to every terminal due this cycle, in
// ascending terminal order, and files each at the cycle its source names
// next. A terminal with nothing to emit before then costs nothing until it.
func (n *Network) takeTurns() {
	now := n.now
	if now&(turnSlots-1) == 0 {
		// A new lap of the wheel: the far turns it now reaches join it.
		for w, word := range n.farTurns {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				if t := w*64 + b; n.due[t]-now < turnSlots {
					n.farTurns.clear(t)
					n.fileTurn(t)
				}
			}
		}
	}
	slot := n.turnSlot(now)
	for w, word := range slot {
		slot[w] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			t := w*64 + b
			if n.due[t] != now {
				continue // re-armed earlier by an eject, and taken then
			}
			n.injectTerm = t
			rng := &n.termRNG[t]
			rng.ahead = 0
			next := n.cfg.Traffic.Generate(now, now+turnHorizon, t, rng, n.injectFn)
			n.due[t] = max(next, now+1)
			n.fileTurn(t)
		}
	}
}

// turnSlot is the wheel slot of cycle c: the terminals due at c once c is
// less than turnSlots ahead.
func (n *Network) turnSlot(c int64) bitset {
	i := int(c&(turnSlots-1)) * n.turnWords
	return n.turnWheel[i : i+n.turnWords]
}

// fileTurn files terminal t at due[t]: in the wheel when that is less than
// turnSlots ahead, among the far turns otherwise.
func (n *Network) fileTurn(t int) {
	if n.due[t]-n.now < turnSlots {
		n.turnSlot(n.due[t]).set(t)
	} else {
		n.farTurns.set(t)
	}
}

// rearm gives terminal t a turn at cycle c if it was due later.
func (n *Network) rearm(t int, c int64) {
	if n.due[t] > c {
		n.due[t] = c
		n.fileTurn(t)
	}
}

// handBack is what generation stopping at the current cycle — a pause, or
// a change of source — needs: every terminal's draws for the turns its
// source settled from this cycle on go back to its stream, and its next
// turn is the first of them. A source then resumes as if it had had a turn
// on every cycle it was attached and none while it was not.
func (n *Network) handBack() {
	for t := range n.due {
		rng := &n.termRNG[t]
		if k := min(rng.ahead, n.due[t]-n.now); k > 0 {
			rng.unread(k)
			n.due[t] -= k
		}
		rng.ahead = 0
	}
}

// placeTurns refiles every terminal at due[t], or at the current cycle if
// that is past (generation was paused when it came).
func (n *Network) placeTurns() {
	clear(n.turnWheel)
	clear(n.farTurns)
	for t := range n.due {
		n.due[t] = max(n.due[t], n.now)
		n.fileTurn(t)
	}
}

// turnAll gives every terminal a turn at the current cycle.
func (n *Network) turnAll() {
	for t := range n.due {
		n.due[t] = n.now
	}
	n.placeTurns()
}

// phase2 visits each active router once, in ascending order, running its
// stages back to back (Router.step). Every cross-router read in a visit goes
// through VC snapshots or published views and every cross-router write is
// buffered to commit, so no router can observe another's visit.
func (n *Network) phase2() {
	active := n.active[:0]
	for w, word := range n.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if r := n.routers[w*64+b]; r.active() {
				active = append(active, r)
			} else {
				n.awake.clear(w*64 + b)
			}
		}
	}
	n.active = active
	if n.permute != nil {
		n.permute(active)
	}
	for _, r := range active {
		r.step()
	}
}

// deliverArrivals moves the flits and SMs that complete link traversal
// this cycle into input VCs and agent inboxes. The flits are this cycle's
// slot of the arrival wheel, delivered whole; the SMs are found on the
// links in linkActive, walked in ascending link order. The order among
// flits cannot be observed, but an SM handler can look at other ports
// (classifyRecovery's FindDeadlock), so the cycle delivers as if link by
// link in ascending index: before a link's SM, the slot's flits from links
// up to it, and none from links past it. Flits go in send order, save that
// this rule moves some ahead of an SM and so permutes the rest.
func (n *Network) deliverArrivals() {
	slot := n.wheel[n.wheelPos]
	k := 0 // slot[:k] is delivered
	for w, word := range n.linkActive {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			l := n.links[w*64+b]
			if l.sms[0].arrive != n.now {
				continue
			}
			for i := k; i < len(slot); i++ {
				if slot[i].link.index <= l.index {
					slot[i], slot[k] = slot[k], slot[i]
					n.deliverFlit(slot[k])
					k++
				}
			}
			n.deliverSM(l)
			if len(l.sms) == 0 {
				n.linkActive.clear(w*64 + b)
			}
		}
	}
	for _, t := range slot[k:] {
		n.deliverFlit(t)
	}
	n.wheel[n.wheelPos] = slot[:0]
}

// deliverFlit lands an arriving flit in its VC.
func (n *Network) deliverFlit(t flitTransit) {
	t.dst.inFlight--
	t.dst.enqueue(t.flit, n.now)
	if n.measuring() {
		n.stats.BufferWrites++
	}
	if t.flit.IsHead() {
		pkt := t.flit.Pkt
		pkt.Hops++
		// Misroute accounting: a hop that fails to reduce the
		// distance to the phase-local destination.
		l := t.link
		cur, prev := l.dst.ID, l.topo.Src
		topo := n.cfg.Topology
		if topo.Distance(cur, pkt.RouteDst()) >= topo.Distance(prev, pkt.RouteDst()) {
			pkt.Misroutes++
		}
		pkt.Arrive(cur, l.global)
	}
}

// deliverSM hands l's front SM, due this cycle, to its destination's
// agent. It is the only one due: resolveSMs sends one SM per output port
// per cycle and a link's latency is fixed.
func (n *Network) deliverSM(l *link) {
	sm := l.sms[0].sm
	last := len(l.sms) - 1
	copy(l.sms, l.sms[1:])
	l.sms[last] = smTransit{}
	l.sms = l.sms[:last]
	if n.wants(EvSMDeliver) {
		n.emit(Event{Cycle: n.now, Kind: EvSMDeliver, Router: l.dst.ID,
			Port: l.topo.DstPort, Src: sm.Sender, VNet: int(sm.VNet),
			SM: sm.Kind.String(), Tag: sm.Tag, Arg: sm.SpinCycle})
	}
	if a := l.dst.agent; a != nil {
		a.HandleSM(sm, l.topo.DstPort)
		l.dst.wake()
	}
	// Delivered SMs are dead: agents copy (CloneSM) anything they
	// forward and never retain the original.
	n.freeSM(sm)
}

// ejected accounts a flit leaving the network; on tails it finalises the
// packet and defers observer replay (telemetry, events, closed-loop
// source, checker, pool recycle) to commit.
func (n *Network) ejected(f Flit) {
	n.stats.EjectedFlits++
	if n.measuring() {
		n.stats.EjectedFlitsMeas++
	}
	if n.wants(EvFlitEject) {
		n.emit(Event{Cycle: n.now, Kind: EvFlitEject, Router: f.Pkt.DstRouter,
			Packet: f.Pkt.ID, VNet: f.Pkt.VNet})
	}
	if !f.IsTail() {
		return
	}
	p := f.Pkt
	if p.Checksum != checksumFor(p.ID, p.Src, p.Dst, p.Length) {
		panic(fmt.Sprintf("sim: payload corruption in %v", p))
	}
	if dst := n.cfg.Topology.TerminalRouter(p.Dst); dst != p.DstRouter {
		panic(fmt.Sprintf("sim: %v ejected at wrong router", p))
	}
	p.EjectCycle = n.now
	n.stats.Ejected++
	n.inNetwork--
	measured := p.GenCycle >= n.cfg.StatsStart
	if measured {
		n.stats.EjectedMeasured++
		lat := p.EjectCycle - p.GenCycle
		n.stats.LatencySum += lat
		n.stats.NetLatencySum += p.EjectCycle - p.InjectCycle
		n.stats.HopSum += int64(p.Hops)
		n.stats.MisrouteSum += int64(p.Misroutes)
		if lat > n.stats.MaxLatency {
			n.stats.MaxLatency = lat
		}
	}
	if n.tele != nil || n.wants(EvPacketEject) || n.checker != nil || n.closed != nil || p.pooled {
		n.ejects = append(n.ejects, ejectRec{p: p, lat: p.EjectCycle - p.GenCycle, measured: measured})
	}
}

// commit applies the effects phase 2 buffered and runs the end-of-cycle
// work.
func (n *Network) commit() {
	now := n.now
	// 1. Spin force-reservations.
	for _, op := range n.resvOps {
		if op.force {
			op.dvc.applyReserve(op.pkt, now)
		}
	}
	// 2. Normal reservations. At most one per VC per cycle can exist (one
	// inbound link, one head per output port); if a spin force-reserved
	// the VC this cycle the grant stands down and the spin keeps it.
	for i, op := range n.resvOps {
		if !op.force && op.dvc.resvOwner == nil {
			op.dvc.applyReserve(op.pkt, now)
		}
		n.resvOps[i] = resvOp{}
	}
	n.resvOps = n.resvOps[:0]
	// 3. In-flight credits for flits launched this cycle.
	for i, v := range n.inFlightOps {
		v.inFlight++
		v.markDirty()
		n.inFlightOps[i] = nil
	}
	n.inFlightOps = n.inFlightOps[:0]
	// 4. Refresh the snapshots of every VC whose state changed. The list is
	// the checker's change set in step 6 (nothing in between touches a VC).
	for _, v := range n.dirtyVCs {
		v.refreshSnap()
	}
	// 5. Ejection observer replay, then pooled packets recycle: events
	// carry values, and nothing shown the *Packet may retain it.
	for i, rec := range n.ejects {
		p := rec.p
		if n.tele != nil {
			n.tele.onEject(rec.lat, rec.measured)
		}
		if n.wants(EvPacketEject) {
			n.emit(Event{Cycle: n.now, Kind: EvPacketEject, Router: p.DstRouter,
				Packet: p.ID, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Len: p.Length, Arg: rec.lat})
		}
		if n.closed != nil {
			n.closed.OnEject(p)
			n.rearm(p.Dst, now+1)
		}
		if n.checker != nil {
			n.checker.onEject(p)
		}
		if p.pooled {
			n.pktPool = append(n.pktPool, p)
		}
		n.ejects[i] = ejectRec{}
	}
	n.ejects = n.ejects[:0]
	// 6. Checker, cycle counters, telemetry window close.
	if n.checker != nil {
		n.checker.endOfStep()
	}
	n.dirtyVCs = n.dirtyVCs[:0]
	if n.measuring() {
		n.stats.MeasuredCycles++
	}
	n.stats.Cycles++
	n.now++
	if n.wheelPos++; n.wheelPos == len(n.wheel) {
		n.wheelPos = 0
	}
	if n.tele != nil {
		n.tele.onCycle()
	}
}
