package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Router is one network router: a set of input ports each holding
// VNets×VCsPerVNet virtual channels, an output crossbar with one flit per
// input port and one per output port per cycle, and an optional
// deadlock-freedom agent.
type Router struct {
	net        *Network
	ID         int
	radix      int
	localPorts int

	in      [][]VC  // [port][vcIdx]: windows of vcFlat
	vcFlat  []VC    // the router's window of the network's VC slab, in (port, vcIdx) order: slot = port*VCsPerPort+vcIdx
	outLink []*link // per output port; nil for terminal/unwired ports

	// What output port p sees of the router at the far end of its link: that
	// input port's VCs and its words of the downstream router's inFree (both
	// nil without a link).
	outVCs  [][]VC
	outFree []bitset

	// The router's worklists, one slab. occ is the occupied-VC set: bit slot
	// is set exactly while vcFlat[slot] buffers a flit (VC.enqueue/dequeue
	// maintain it); the spin stages and the agents walk it. The other three
	// index what cannot move, so that a stalled VC costs nothing:
	//
	//   - needRoute: the front flit is a head not yet routed (set where a head
	//     reaches the front, in enqueue and dequeue; routeStage drains it).
	//   - blocked: a routed head every one of whose requests names a link
	//     whose admissible downstream VCs are all taken (tryGrant sets it,
	//     dequeue clears it); saStage walks occ &^ blocked.
	//   - inFree: bit port*Network.freeStride+vcIdx is set while that input
	//     VC is unreserved with a free slot as of the last commit. Only
	//     VC.refreshSnap writes it; a rising bit is the one event that can
	//     unblock a head upstream, so it clears the feeding router's blocked
	//     set. Upstream routers read it through their outFree.
	occ       bitset
	needRoute bitset
	blocked   bitset
	inFree    bitset
	// waker names, per input port, who may be asleep on the port's VCs: for
	// a terminal port the terminal (its bit in the network's nicBlocked), for
	// a link port the id of the router feeding it (-1: nobody).
	waker []int32

	agent Agent

	// Work counters behind active(): a router is stepped only while one of
	// them is non-zero or its agent is awake.
	flitCount   int // buffered flits across all input VCs
	spinningVCs int // VCs force-transmitting a spin this cycle
	smPending   int // SMs offered via SendSM awaiting arbitration

	// Per-cycle port scratch, reset by the first stage of the router's visit
	// that uses it and read only later in that visit; smSends also collects
	// the SMs that phase 1's deliveries offer.
	smSends     [][]*SM // per output port: SMs competing for the link
	smBusy      portSet // output port carries an SM this cycle
	spinClaimed portSet // output port claimed by a spinning VC this cycle
	inUsed      portSet // crossbar inputs and outputs taken this cycle
	outUsed     portSet
}

// portSet is a one-word set of router ports (NewNetwork rejects a radix
// past 64).
type portSet uint64

func (s portSet) has(p int) bool { return s>>uint(p)&1 != 0 }
func (s *portSet) set(p int)     { *s |= 1 << uint(p) }

// wire attaches l to output port p, caching the far end's view of it.
func (r *Router) wire(p int, l *link) {
	d, dp := l.dst, l.topo.DstPort
	r.outLink[p] = l
	r.outVCs[p] = d.in[dp]
	words := r.net.freeStride / 64
	r.outFree[p] = d.inFree[dp*words : (dp+1)*words]
	d.waker[dp] = int32(r.ID)
}

// active reports whether the router needs to be stepped this cycle: it
// holds flits, has SM or spin work pending, or its agent is awake.
func (r *Router) active() bool {
	if r.flitCount > 0 || r.smPending > 0 || r.spinningVCs > 0 {
		return true
	}
	return r.agent != nil && !r.agent.Quiescent()
}

// wake puts the router in the network's awake set, the routers phase 2 asks
// active() of. Everything that can turn active() true calls it: a first
// flit, an offered or delivered SM, a new agent.
func (r *Router) wake() { r.net.awake.set(r.ID) }

// FirstOccupied returns the lowest slot in [lo, hi) whose VC buffers a
// flit, or -1. Slots number the input VCs port-major (port*VCsPerPort +
// index); VCAt resolves one.
func (r *Router) FirstOccupied(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	word := r.occ[w] &^ (1<<uint(lo&63) - 1)
	for word == 0 {
		if w++; w<<6 >= hi {
			return -1
		}
		word = r.occ[w]
	}
	if slot := w<<6 + bits.TrailingZeros64(word); slot < hi {
		return slot
	}
	return -1
}

// VCAt returns the VC at a flat slot (see VC.Slot).
func (r *Router) VCAt(slot int) *VC { return &r.vcFlat[slot] }

// Net returns the owning network.
func (r *Router) Net() *Network { return r.net }

// Radix reports the number of ports.
func (r *Router) Radix() int { return r.radix }

// LocalPorts reports the number of terminal ports.
func (r *Router) LocalPorts() int { return r.localPorts }

// Agent returns the router's deadlock agent (nil without a scheme).
func (r *Router) Agent() Agent { return r.agent }

// VC returns the virtual channel at (port, idx).
func (r *Router) VC(port, idx int) *VC { return &r.in[port][idx] }

// VCsPerPort reports how many VCs each input port has.
func (r *Router) VCsPerPort() int { return r.net.cfg.VNets * r.net.cfg.VCsPerVNet }

// HasOutLink reports whether port p drives an inter-router link.
func (r *Router) HasOutLink(p int) bool { return p >= 0 && p < r.radix && r.outLink[p] != nil }

// LinkLatency reports the traversal latency of the link at output port p
// (0 if p has no link).
func (r *Router) LinkLatency(p int) int {
	if !r.HasOutLink(p) {
		return 0
	}
	return r.outLink[p].topo.Latency
}

// Downstream resolves the router and input port at the far end of output
// port p.
func (r *Router) Downstream(p int) (*Router, int, bool) {
	if !r.HasOutLink(p) {
		return nil, 0, false
	}
	l := r.outLink[p]
	return l.dst, l.topo.DstPort, true
}

// RNG exposes the router's private deterministic random stream for
// adaptive tie-breaking. The stream is derived from (Config.Seed, router
// id), so its draw sequence never depends on other routers' activity or on
// the order routers are stepped in.
func (r *Router) RNG() *rand.Rand { return &r.net.routerRNG[r.ID].Rand }

// Stats returns the network's statistics, for agents to count into.
func (r *Router) Stats() *Stats { return &r.net.stats }

// Now reports the current cycle.
func (r *Router) Now() int64 { return r.net.now }

// DownstreamVCs returns the VCs of the packet-admissible set at output
// port p for vnet, i.e. the downstream input-port VCs selected by mask.
// It appends to buf. Returns nil when p has no link.
func (r *Router) DownstreamVCs(p, vnet int, mask uint32, buf []*VC) []*VC {
	if !r.HasOutLink(p) {
		return buf
	}
	base := vnet * r.net.cfg.VCsPerVNet
	for k := 0; k < r.net.cfg.VCsPerVNet; k++ {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		buf = append(buf, &r.outVCs[p][base+k])
	}
	return buf
}

// freeVCs returns which of the downstream VCs base..base+VCsPerVNet-1 at
// linked output port p (bit k: VC base+k) mask admits and the last commit
// left unreserved with a free slot. Every VC that canAcceptSnap is among
// them, so the snapshot readers test only these, and an empty answer means
// nothing behind p can be granted before a VC there frees.
func (r *Router) freeVCs(p, base int, mask uint32) uint32 {
	return mask & (1<<uint(r.net.cfg.VCsPerVNet) - 1) & r.outFree[p].window32(base)
}

// FreeVCAt reports whether some downstream VC at output port p (vnet,
// mask) could accept a packet of the given length as of the last commit.
// Adaptive algorithms use it as their primary congestion signal; it reads
// the commit snapshot, matching what real hardware's delayed credit
// counters would show and keeping the answer independent of which router
// phase 2 has already stepped.
func (r *Router) FreeVCAt(p, vnet int, mask uint32, length int) bool {
	if !r.HasOutLink(p) {
		return false
	}
	base := vnet * r.net.cfg.VCsPerVNet
	for cand := r.freeVCs(p, base, mask); cand != 0; cand &= cand - 1 {
		if r.outVCs[p][base+bits.TrailingZeros32(cand)].canAcceptSnap(length) {
			return true
		}
	}
	return false
}

// MinActiveTime reports the smallest ActiveTime among the downstream VCs
// at output port p (vnet, mask) — 0 if any is idle — as of the last
// commit. This is the FAvORS port-contention proxy, obtainable in hardware
// from VC credits.
func (r *Router) MinActiveTime(p, vnet int, mask uint32) int64 {
	if !r.HasOutLink(p) {
		return 1 << 30
	}
	now := r.net.now
	base := vnet * r.net.cfg.VCsPerVNet
	best := int64(1) << 30
	for k := 0; k < r.net.cfg.VCsPerVNet; k++ {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		if t := r.outVCs[p][base+k].activeTimeSnap(now); t < best {
			best = t
		}
	}
	return best
}

// SendSM offers a special message for transmission on output port p this
// cycle. Contention among SMs on the same port is resolved at the end of
// the agent phase via Agent.PickSM; losers are dropped (the SM layer is
// bufferless).
func (r *Router) SendSM(p int, sm *SM) {
	if !r.HasOutLink(p) {
		r.net.freeSM(sm)
		return
	}
	r.smSends[p] = append(r.smSends[p], sm)
	r.smPending++
	r.wake()
}

// NewSM returns a zeroed special message from the network's free list.
// Agents should build SMs with it (and CloneSM) so that steady-state SM
// traffic allocates nothing; SMs the engine drops or delivers are
// recycled automatically.
func (r *Router) NewSM() *SM { return r.net.allocSM() }

// CloneSM returns a pooled deep copy of m, for forking or forwarding.
func (r *Router) CloneSM(m *SM) *SM {
	c := r.net.allocSM()
	path := c.Path
	*c = *m
	c.pooled = true
	c.Path = append(path[:0], m.Path...)
	return c
}

// FreezeVC marks the VC as frozen: it no longer participates in normal
// switch allocation and its resident packet will only move during a spin.
func (r *Router) FreezeVC(v *VC) {
	if !v.is(vcFrozen) && r.net.wants(EvVCFreeze) {
		r.net.emit(Event{Cycle: r.net.now, Kind: EvVCFreeze, Router: r.ID, Port: v.Port(), VC: v.Index()})
	}
	v.flags |= vcFrozen
}

// UnfreezeVC lifts a freeze (kill_move processing).
func (r *Router) UnfreezeVC(v *VC) {
	if v.is(vcFrozen) && r.net.wants(EvVCUnfreeze) {
		r.net.emit(Event{Cycle: r.net.now, Kind: EvVCUnfreeze, Router: r.ID, Port: v.Port(), VC: v.Index()})
	}
	v.flags &^= vcFrozen
}

// StartSpin begins the synchronized movement of v's frozen resident
// packet: from this cycle on the engine force-transmits one flit per cycle
// out of outPort into target, bypassing buffer-space checks. The space the
// flits land in is vacated by target's own simultaneous spin; the VC
// enqueue asserts the invariant.
func (r *Router) StartSpin(v *VC, outPort int, target *VC) {
	if v.FrontPacket() == nil {
		return
	}
	if !v.is(vcSpinning) {
		r.spinningVCs++
		if r.net.wants(EvSpinStart) {
			r.net.emit(Event{Cycle: r.net.now, Kind: EvSpinStart, Router: r.ID,
				Port: v.Port(), VC: v.Index(), Arg: int64(outPort)})
		}
	}
	v.flags = v.flags&^vcFrozen | vcSpinning
	v.outPort = int8(outPort)
	v.target = target
	// The target is another router's VC; its force reservation is buffered
	// and applied (before any normal reservation) at commit.
	r.net.resvOps = append(r.net.resvOps, resvOp{dvc: target, pkt: v.FrontPacket(), force: true})
}

// step is the router's phase-2 visit: its five stages, in order.
func (r *Router) step() {
	r.routeStage()
	if r.agent != nil {
		r.agent.Tick()
	}
	r.claimSpinPorts()
	r.resolveSMs()
	r.spinStage()
	r.saStage()
}

// routeStage computes port requests for every VC whose resident head flit
// has reached the front and is not yet routed: exactly the needRoute bits.
func (r *Router) routeStage() {
	for w, word := range r.needRoute {
		for ; word != 0; word &= word - 1 {
			v := &r.vcFlat[w<<6+bits.TrailingZeros64(word)]
			if !v.unroutedHead() {
				panic(fmt.Sprintf("sim: r%d p%d vc%d queued for routing without an unrouted head at its front", r.ID, v.port, v.index))
			}
			pkt := v.buf[0].Pkt
			if pkt.DstRouter == r.ID {
				termPort := r.net.cfg.Topology.TerminalPort(pkt.Dst)
				v.reqs = append(v.reqs[:0], PortRequest{Port: termPort, VCMask: AllVCs})
				v.flags |= vcRouted
				continue
			}
			n := r.net
			n.routeBuf = n.cfg.Routing.Route(r, v.Port(), pkt, n.routeBuf[:0])
			if len(n.routeBuf) == 0 {
				panic(fmt.Sprintf("sim: routing %s returned no ports for %v at router %d", n.cfg.Routing.Name(), pkt, r.ID))
			}
			v.reqs = append(v.reqs[:0], n.routeBuf...)
			v.flags |= vcRouted
		}
		r.needRoute[w] = 0
	}
}

// claimSpinPorts reserves output ports for VCs that are spinning this
// cycle; SMs may not preempt a spin in progress.
func (r *Router) claimSpinPorts() {
	r.spinClaimed = 0
	if r.spinningVCs == 0 {
		return
	}
	total := len(r.vcFlat)
	for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
		if v := &r.vcFlat[slot]; v.is(vcSpinning) {
			r.spinClaimed.set(int(v.outPort))
		}
	}
}

// resolveSMs arbitrates this cycle's SM sends per output port and places
// winners on the links.
func (r *Router) resolveSMs() {
	r.smBusy = 0
	if r.smPending == 0 {
		return
	}
	r.smPending = 0
	n := r.net
	for p := 0; p < r.radix; p++ {
		cands := r.smSends[p]
		if len(cands) == 0 {
			continue
		}
		r.smSends[p] = cands[:0]
		if r.spinClaimed.has(p) || r.outLink[p] == nil {
			n.stats.SMDropped += int64(len(cands))
			for _, c := range cands {
				if n.wants(EvSMDrop) {
					n.emit(Event{Cycle: n.now, Kind: EvSMDrop, Router: r.ID, Port: p,
						Src: c.Sender, VNet: int(c.VNet), SM: c.Kind.String(), Tag: c.Tag, Arg: c.SpinCycle})
				}
				n.freeSM(c)
			}
			continue
		}
		var win *SM
		if len(cands) == 1 {
			win = cands[0]
		} else if r.agent != nil {
			win = r.agent.PickSM(p, cands)
		} else {
			win = cands[0]
		}
		n.stats.SMDropped += int64(len(cands) - 1)
		for _, c := range cands {
			if c != win {
				if n.wants(EvSMDrop) {
					n.emit(Event{Cycle: n.now, Kind: EvSMDrop, Router: r.ID, Port: p,
						Src: c.Sender, VNet: int(c.VNet), SM: c.Kind.String(), Tag: c.Tag, Arg: c.SpinCycle})
				}
				n.freeSM(c)
			}
		}
		l := r.outLink[p]
		n.sendSM(l, win)
		r.smBusy.set(p)
		if n.measuring() {
			l.smCycles[win.Kind]++
		}
		n.stats.SMSent[win.Kind]++
		if n.tele != nil {
			n.tele.busySM++
		}
		if n.wants(EvSMSend) {
			n.emit(Event{Cycle: n.now, Kind: EvSMSend, Router: r.ID, Port: p,
				Src: win.Sender, VNet: int(win.VNet), SM: win.Kind.String(), Tag: win.Tag, Arg: win.SpinCycle})
		}
	}
}

// spinStage opens the cycle's crossbar schedule and force-transmits one
// flit from every spinning VC.
func (r *Router) spinStage() {
	r.inUsed, r.outUsed = 0, 0
	if r.spinningVCs == 0 {
		return
	}
	total := len(r.vcFlat)
	for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
		v := &r.vcFlat[slot]
		if !v.is(vcSpinning) {
			continue
		}
		out, target := int(v.outPort), v.target
		if r.inUsed.has(v.Port()) || r.outUsed.has(out) {
			panic("sim: spin port collision")
		}
		r.sendFlitFrom(v, out, target)
		r.inUsed.set(v.Port())
		r.outUsed.set(out)
	}
}

// saStage performs switch allocation for normal (non-frozen, non-spinning)
// traffic. Each input VC tries its port requests in preference order; a
// rotating start index provides fairness.
func (r *Router) saStage() {
	if r.flitCount == 0 {
		return
	}
	// The rotating start index advances once per cycle; deriving it from
	// the clock (instead of a stored pointer bumped every call) lets idle
	// routers skip the stage entirely without desynchronising fairness.
	// No VC gains flits during switch allocation, a VC only drains when
	// visited, and a blocked VC's turn changes nothing, so walking the
	// occupied, unblocked bits [start, total) then [0, start) gives every VC
	// a full rotating scan would serve its turn, in its order.
	total := len(r.vcFlat)
	start := int(r.net.now % int64(total))
	r.allocateRun(start, total)
	r.allocateRun(0, start)
}

// allocateRun gives the occupied, unblocked VCs of slots [lo, hi) their
// turn at switch allocation, ascending. A turn touches no other VC's bits,
// so each word is read once.
func (r *Router) allocateRun(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := r.occ[w] &^ r.blocked[w]
		if w == lo>>6 {
			word &^= 1<<uint(lo&63) - 1
		}
		if n := hi - w<<6; n < 64 {
			word &= 1<<uint(n) - 1
		}
		r.net.saVisits += int64(bits.OnesCount64(word))
		for ; word != 0; word &= word - 1 {
			r.allocate(&r.vcFlat[w<<6+bits.TrailingZeros64(word)])
		}
	}
}

// allocate is one occupied VC's turn at switch allocation.
func (r *Router) allocate(v *VC) {
	if v.flags&(vcFrozen|vcSpinning) != 0 || r.inUsed.has(v.Port()) {
		return
	}
	if v.target != nil || (v.outPort >= 0 && int(v.outPort) < r.localPorts) {
		// Granted packet (or ejection in progress): stream next flit.
		r.tryContinue(v)
		return
	}
	if v.is(vcRouted) && v.buf[0].IsHead() {
		r.tryGrant(v)
	}
}

// tryContinue streams a flit of an already-granted packet.
func (r *Router) tryContinue(v *VC) {
	out := int(v.outPort)
	if r.outUsed.has(out) {
		return
	}
	if v.target == nil {
		// Ejection continues unconditionally: the NIC never stalls.
		r.ejectFlit(v)
		r.inUsed.set(v.Port())
		r.outUsed.set(out)
		return
	}
	if r.smBusy.has(out) {
		return
	}
	// Downstream credit check against the commit snapshot: this VC is the
	// only sender toward its reserved target, and it streams at most one
	// flit per cycle, so the snapshot can never overshoot the live space.
	if v.target.snapFree <= 0 {
		return
	}
	r.sendFlitFrom(v, out, v.target)
	r.inUsed.set(v.Port())
	r.outUsed.set(out)
}

// tryGrant walks the request list of a routed head packet and performs VC
// allocation plus first-flit transmission on the first viable request.
// A head that asks for no ejection and finds every admissible downstream
// VC of every link it asks for taken goes to sleep in blocked: nothing it
// could be granted exists until one of those VCs frees, and that wakes it
// (see Router.inFree). A busy output or an agent veto is no reason to
// sleep: both can lift without any VC freeing.
func (r *Router) tryGrant(v *VC) {
	pkt := v.buf[0].Pkt
	base := pkt.VNet * r.net.cfg.VCsPerVNet
	stalled := true
	for _, req := range v.reqs {
		out := req.Port
		if out < r.localPorts {
			stalled = false
			if r.outUsed.has(out) {
				continue
			}
			// Ejection request.
			v.outPort = int8(out)
			r.ejectFlit(v)
			r.inUsed.set(v.Port())
			r.outUsed.set(out)
			return
		}
		if r.outLink[out] == nil {
			continue
		}
		cand := r.freeVCs(out, base, req.VCMask)
		if cand == 0 {
			continue
		}
		stalled = false
		if r.outUsed.has(out) || r.smBusy.has(out) {
			continue
		}
		for ; cand != 0; cand &= cand - 1 {
			dvc := &r.outVCs[out][base+bits.TrailingZeros32(cand)]
			if !dvc.canAcceptSnap(pkt.Length) {
				continue
			}
			if r.agent != nil && !r.agent.FilterSend(v, out, dvc) {
				continue
			}
			// The reservation is buffered: the target is the downstream
			// router's VC. Each input port has one feeding link and each
			// output port sends one head per cycle, so no other normal
			// reservation can race it at commit.
			r.net.resvOps = append(r.net.resvOps, resvOp{dvc: dvc, pkt: pkt})
			v.target = dvc
			v.outPort = int8(out)
			r.sendFlitFrom(v, out, dvc)
			r.inUsed.set(v.Port())
			r.outUsed.set(out)
			return
		}
	}
	if stalled {
		r.blocked.set(int(v.slot))
	}
}

// sendFlitFrom dequeues v's front flit onto the output link toward dvc.
// The downstream credit (dvc.inFlight) is the downstream router's state,
// so it is buffered to commit. The flit goes on the arrival wheel: its
// arrival is at least a cycle out, and phase 1 has already emptied this
// cycle's slot.
func (r *Router) sendFlitFrom(v *VC, out int, dvc *VC) {
	f := v.dequeue()
	l := r.outLink[out]
	n := r.net
	n.inFlightOps = append(n.inFlightOps, dvc)
	n.sendFlit(l, f, dvc)
	if n.tele != nil {
		n.tele.busyFlit++
	}
	if n.measuring() {
		l.flitCycles++
		n.stats.BufferReads++
		n.stats.XbarTraversals++
		n.stats.LinkTraversals++
	}
}

// ejectFlit removes v's front flit from the network into the NIC sink.
func (r *Router) ejectFlit(v *VC) {
	f := v.dequeue()
	if r.net.measuring() {
		r.net.stats.BufferReads++
		r.net.stats.XbarTraversals++
	}
	r.net.ejected(f)
}
