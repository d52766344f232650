package sim

import "fmt"

// VC is one virtual channel at a router input port: a FIFO of flits plus
// the routing and reservation state of its resident packet.
//
// Under virtual cut-through a VC normally holds at most one packet. During
// a SPIN it transiently holds the draining tail of the frozen packet and
// the arriving head of its upstream neighbour's packet; the FIFO and the
// reservation owner handle that overlap.
//
// VCs live in one slab per network (see NewNetwork), so every byte here is
// paid once per VC: 104 B, 34 560 times on the 1024-node dragonfly at 3
// vnets x 3 VCs. Small fields are narrowed to the bounds NewNetwork
// enforces (radix <= 64, MaxVCsPerPort, MaxVCDepth) and packed into the
// padding after buf; the depth is the network's, not stored per VC. The
// hot fields, read by the stages that visit an occupied VC every cycle,
// come first; the reservation and congestion-proxy state behind them is
// touched about once per packet.
type VC struct {
	router *Router
	buf    []Flit

	slot     uint16 // port*VCsPerPort+index: the VC's bit in Router.occ
	inFlight int16  // flits sent toward this VC but still on the link
	// Commit-frozen snapshot of the state other routers may read during
	// phase 2 (downstream credit checks, congestion proxies). The snapshot
	// refreshes at every commit for VCs marked dirty; all cross-router reads
	// in phase 2 go through it, so what a router sees of a neighbour is the
	// end of the last cycle whether or not the neighbour has been stepped.
	// Its two flags (vcSnapResv, vcSnapDirty) and snapActive complete it.
	snapFree int16 // FreeSlots at last commit
	snapLen  int16 // Len at last commit
	port     uint8 // input port
	index    uint8 // VC index within the port (vnet-major)
	outPort  int8  // output port of the grant (-1 until granted)
	flags    vcFlags

	target *VC // downstream VC granted to the resident packet
	// Routing state of the resident (front) packet. reqs is computed once
	// per router visit when the head flit reaches the front (vcRouted).
	reqs []PortRequest

	// resvOwner is the packet the VC is currently allocated to (the most
	// recently admitted one). It is set when an upstream head flit departs
	// toward this VC and cleared when that packet's tail flit is dequeued.
	resvOwner *Packet
	// activeSince is the cycle the VC last became allocated; it backs the
	// "VC active time" congestion proxy FAvORS uses.
	activeSince int64
	snapActive  int64 // activeSince at last commit
}

// vcFlags packs a VC's booleans into one byte.
type vcFlags uint8

const (
	vcRouted    vcFlags = 1 << iota // reqs holds the resident head's requests
	vcFrozen                        // frozen by a deadlock-recovery agent
	vcSpinning                      // force-transmitting during a spin
	vcSnapResv                      // allocated (resvOwner != nil) at last commit
	vcSnapDirty                     // queued on the network's refresh list
)

// is reports whether every flag of f is set.
func (v *VC) is(f vcFlags) bool { return v.flags&f == f }

// Router returns the router this VC belongs to.
func (v *VC) Router() *Router { return v.router }

// Port returns the input port this VC belongs to.
func (v *VC) Port() int { return int(v.port) }

// Index returns the VC index within its port.
func (v *VC) Index() int { return int(v.index) }

// Slot returns the VC's flat index at its router, port*VCsPerPort+index:
// the numbering Router.FirstOccupied and Router.VCAt use.
func (v *VC) Slot() int { return int(v.slot) }

// VNet reports the virtual network this VC serves.
func (v *VC) VNet() int { return v.Index() / v.router.net.cfg.VCsPerVNet }

// Depth reports the buffer depth in flits: the network's, the same for
// every VC.
func (v *VC) Depth() int { return v.router.net.cfg.VCDepth }

// Len reports the number of buffered flits.
func (v *VC) Len() int { return len(v.buf) }

// Empty reports whether the VC holds no flits and expects none in flight.
func (v *VC) Empty() bool { return len(v.buf) == 0 && v.inFlight == 0 }

// Idle reports whether the VC is unallocated and empty.
func (v *VC) Idle() bool { return v.resvOwner == nil && v.Empty() }

// FreeSlots reports buffer slots not occupied or promised to in-flight
// flits.
func (v *VC) FreeSlots() int { return v.Depth() - len(v.buf) - int(v.inFlight) }

// CanAccept reports whether a packet of the given length may be allocated
// to this VC under virtual cut-through: the VC must be unallocated and have
// room for the whole packet.
func (v *VC) CanAccept(length int) bool {
	return v.resvOwner == nil && v.FreeSlots() >= length
}

// ActiveTime reports how many cycles the VC has been allocated for, or 0
// if it is idle. It is the congestion proxy of FAvORS ("number of cycles
// the next-hop VC has been active since it last became free").
func (v *VC) ActiveTime(now int64) int64 {
	if v.resvOwner == nil {
		return 0
	}
	return now - v.activeSince
}

// refreshSnap freezes the cross-router-visible state; called at commit for
// dirty VCs and once at construction. It is the only writer of the
// router's inFree word for this VC, and so the one wake source of the
// feeding router's blocked heads: when the VC turns free for allocation,
// all of them get their next turn.
func (v *VC) refreshSnap() {
	r := v.router
	v.snapFree = int16(v.FreeSlots())
	v.snapLen = int16(len(v.buf))
	v.snapActive = v.activeSince
	v.flags &^= vcSnapResv | vcSnapDirty
	if v.resvOwner != nil {
		v.flags |= vcSnapResv
	}
	if i := v.freeBit(); !v.snapAllocatable() {
		r.inFree.clear(i)
	} else if !r.inFree.has(i) {
		r.inFree.set(i)
		if v.Port() >= r.localPorts && r.waker[v.port] >= 0 {
			clear(r.net.routers[r.waker[v.port]].blocked)
		}
	}
}

// freeBit is the VC's bit in its router's inFree, and snapAllocatable the
// predicate the bit caches: unreserved with a free slot as of the last
// commit, which canAcceptSnap needs whatever the length.
func (v *VC) freeBit() int          { return v.Port()*v.router.net.freeStride + v.Index() }
func (v *VC) snapAllocatable() bool { return !v.is(vcSnapResv) && v.snapFree > 0 }

// unroutedHead reports whether the front flit is a head still to be routed:
// the predicate of the VC's bit in its router's needRoute.
func (v *VC) unroutedHead() bool { return len(v.buf) > 0 && v.buf[0].IsHead() && !v.is(vcRouted) }

// markDirty queues the VC for a snapshot refresh at the next commit.
func (v *VC) markDirty() {
	if v.is(vcSnapDirty) {
		return
	}
	v.flags |= vcSnapDirty
	n := v.router.net
	n.dirtyVCs = append(n.dirtyVCs, v)
}

// canAcceptSnap is CanAccept evaluated against the commit snapshot.
func (v *VC) canAcceptSnap(length int) bool {
	return !v.is(vcSnapResv) && int(v.snapFree) >= length
}

// activeTimeSnap is ActiveTime evaluated against the commit snapshot.
func (v *VC) activeTimeSnap(now int64) int64 {
	if !v.is(vcSnapResv) {
		return 0
	}
	return now - v.snapActive
}

// SnapLen reports the buffered flit count as of the last commit — the
// occupancy reading congestion-aware routing (UGAL) uses for next-hop
// queues, stable across phase 2.
func (v *VC) SnapLen() int { return int(v.snapLen) }

// FrontPacket returns the resident packet (the packet of the front flit).
func (v *VC) FrontPacket() *Packet {
	if len(v.buf) == 0 {
		return nil
	}
	return v.buf[0].Pkt
}

// Requests returns the output-port requests of the resident packet, or nil
// if no routed head is at the front. The slice must not be mutated.
func (v *VC) Requests() []PortRequest {
	if !v.is(vcRouted) {
		return nil
	}
	return v.reqs
}

// Granted reports the output port the resident packet holds a downstream
// VC grant for, or -1.
func (v *VC) Granted() int {
	if v.target == nil {
		return -1
	}
	return int(v.outPort)
}

// Frozen reports whether the VC is frozen by a deadlock-recovery agent.
func (v *VC) Frozen() bool { return v.is(vcFrozen) }

// SpinInProgress reports whether the VC is force-transmitting its frozen
// resident; the engine clears it when that packet's tail dequeues.
func (v *VC) SpinInProgress() bool { return v.is(vcSpinning) }

// ResidentComplete reports whether every flit of the resident (front)
// packet is buffered. SPIN's freeze/spin machinery requires it: spinning a
// partially-arrived packet would let its trailing flits and the incoming
// spun packet outpace the single-flit-per-cycle drain and overflow the
// buffer.
func (v *VC) ResidentComplete() bool {
	p := v.FrontPacket()
	if p == nil {
		return false
	}
	if len(v.buf) < p.Length {
		return false
	}
	return v.buf[p.Length-1].Pkt == p
}

// WaitingToEject reports whether the resident packet has arrived at its
// destination router and only awaits ejection. Probes are dropped at such
// VCs: a packet waiting for ejection cannot be part of a cyclic buffer
// dependency (ejection never blocks).
func (v *VC) WaitingToEject() bool {
	p := v.FrontPacket()
	return p != nil && p.DstRouter == v.router.ID
}

// enqueue appends an arriving flit, maintaining the worklists it can grow:
// the router's occupied-VC bitset, its route worklist when a head lands at
// the front, and, on the router's first flit, the network's awake set.
func (v *VC) enqueue(f Flit, now int64) {
	if len(v.buf) >= v.Depth() {
		panic(fmt.Sprintf("sim: VC overflow at r%d p%d vc%d cycle %d: depth=%d inFlight=%d frozen=%v spinning=%v resv=%v arriving=%v seq=%d front=%v",
			v.router.ID, v.port, v.index, now, v.Depth(), v.inFlight, v.Frozen(), v.SpinInProgress(), v.resvOwner, f.Pkt, f.Seq, v.buf[0].Pkt))
	}
	r := v.router
	if len(v.buf) == 0 {
		r.occ.set(int(v.slot))
		if f.IsHead() {
			r.needRoute.set(int(v.slot))
		}
	}
	if r.flitCount == 0 {
		r.wake()
	}
	r.flitCount++
	if len(v.buf) == cap(v.buf) {
		v.grow()
	}
	v.buf = append(v.buf, f)
	v.markDirty()
}

// grow gives a full buffer room: one flit the first time, the VC's depth
// the second, so a buffer is allocated at most twice. A full 5-flit VC pays
// 16 + 80 B, not append's 16 + 32 + 64 + 128 with three slots past the
// depth. The first step stays one flit because most VCs a lightly loaded
// run touches never hold a second: the 1024-node dragonfly at 0.02 for
// 3 200 cycles allocates 2 % more with a first step of two flits, 10 %
// more with one to the depth. Nothing is preallocated: most VCs of a large
// network are never touched.
func (v *VC) grow() {
	c := 1
	if cap(v.buf) > 0 {
		c = v.Depth()
	}
	buf := make([]Flit, len(v.buf), c)
	copy(buf, v.buf)
	v.buf = buf
}

// dequeue removes the front flit, updating routing/reservation state when
// the departing flit is a tail. A VC that moves is not stalled, and room
// at a terminal port is what a backlogged NIC waits for: both sleepers
// wake here.
func (v *VC) dequeue() Flit {
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	r := v.router
	r.flitCount--
	if len(v.buf) == 0 {
		r.occ.clear(int(v.slot))
	}
	r.blocked.clear(int(v.slot))
	if v.Port() < r.localPorts && r.waker[v.port] >= 0 {
		r.net.nicBlocked.clear(int(r.waker[v.port]))
	}
	if f.IsTail() {
		v.clearResidentState()
		if v.resvOwner == f.Pkt {
			v.resvOwner = nil
		}
		if len(v.buf) > 0 && v.buf[0].IsHead() {
			r.needRoute.set(int(v.slot))
		}
	}
	v.markDirty()
	return f
}

// clearResidentState resets per-resident-packet routing state; the next
// packet in the FIFO (if any) will be routed afresh. The request slice
// keeps its capacity so steady-state routing never reallocates.
func (v *VC) clearResidentState() {
	v.reqs = v.reqs[:0]
	v.target = nil
	v.outPort = -1
	spinning := v.is(vcSpinning)
	v.flags &^= vcRouted | vcSpinning
	if spinning {
		v.router.spinningVCs--
		n := v.router.net
		if n.wants(EvSpinEnd) {
			n.emit(Event{Cycle: n.now, Kind: EvSpinEnd, Router: v.router.ID,
				Port: v.Port(), VC: v.Index()})
		}
	}
}

// reserve allocates the VC to a packet whose head flit has just been sent
// toward it. force is used by spins, which overwrite the reservation while
// the previous resident drains. It is the live path (a NIC reserving its
// own router's terminal VC in phase 1); a reservation of another router's
// VC is buffered as a resvOp and goes through applyReserve at commit.
func (v *VC) reserve(p *Packet, now int64, force bool) {
	if !force && v.resvOwner != nil {
		panic("sim: double VC reservation")
	}
	v.applyReserve(p, now)
}

// applyReserve installs the reservation without the double-booking check;
// commit uses it directly after arbitrating force vs. normal ops.
func (v *VC) applyReserve(p *Packet, now int64) {
	v.resvOwner = p
	v.activeSince = now
	v.markDirty()
}
