package sim

import "fmt"

// VC is one virtual channel at a router input port: a FIFO of flits plus
// the routing and reservation state of its resident packet.
//
// Under virtual cut-through a VC normally holds at most one packet. During
// a SPIN it transiently holds the draining tail of the frozen packet and
// the arriving head of its upstream neighbour's packet; the FIFO and the
// reservation owner handle that overlap.
type VC struct {
	router *Router
	port   int // input port
	index  int // VC index within the port (vnet-major)

	buf      []Flit
	depth    int
	inFlight int // flits sent toward this VC but still on the link

	// resvOwner is the packet the VC is currently allocated to (the most
	// recently admitted one). It is set when an upstream head flit departs
	// toward this VC and cleared when that packet's tail flit is dequeued.
	resvOwner *Packet
	// activeSince is the cycle the VC last became allocated; it backs the
	// "VC active time" congestion proxy FAvORS uses.
	activeSince int64

	// Routing state of the resident (front) packet. reqs is computed once
	// per router visit when the head flit reaches the front.
	reqs   []PortRequest
	routed bool
	// slot is the VC's flat index port*VCsPerPort+index at its router: its
	// bit in Router.occ. It sits in routed's padding, so VC keeps its
	// allocator size class.
	slot     int32
	target   *VC // downstream VC granted to the resident packet
	outPort  int // output port of the grant (-1 until granted)
	frozen   bool
	spinning bool // force-transmitting during a spin

	// Commit-frozen snapshot of the state other routers may read during
	// phase 2 (downstream credit checks, congestion proxies). The snapshot
	// refreshes at every commit for VCs marked dirty; all cross-router reads
	// in phase 2 go through it, so what a router sees of a neighbour is the
	// end of the last cycle whether or not the neighbour has been stepped.
	snapFree   int   // FreeSlots at last commit
	snapLen    int   // Len at last commit
	snapResv   bool  // allocated (resvOwner != nil) at last commit
	snapActive int64 // activeSince at last commit
	snapDirty  bool  // queued on the network's refresh list
}

// Router returns the router this VC belongs to.
func (v *VC) Router() *Router { return v.router }

// Port returns the input port this VC belongs to.
func (v *VC) Port() int { return v.port }

// Index returns the VC index within its port.
func (v *VC) Index() int { return v.index }

// Slot returns the VC's flat index at its router, port*VCsPerPort+index:
// the numbering Router.FirstOccupied and Router.VCAt use.
func (v *VC) Slot() int { return int(v.slot) }

// VNet reports the virtual network this VC serves.
func (v *VC) VNet() int { return v.index / v.router.net.cfg.VCsPerVNet }

// Depth reports the buffer depth in flits.
func (v *VC) Depth() int { return v.depth }

// Len reports the number of buffered flits.
func (v *VC) Len() int { return len(v.buf) }

// Empty reports whether the VC holds no flits and expects none in flight.
func (v *VC) Empty() bool { return len(v.buf) == 0 && v.inFlight == 0 }

// Idle reports whether the VC is unallocated and empty.
func (v *VC) Idle() bool { return v.resvOwner == nil && v.Empty() }

// FreeSlots reports buffer slots not occupied or promised to in-flight
// flits.
func (v *VC) FreeSlots() int { return v.depth - len(v.buf) - v.inFlight }

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
	v.snapFree = v.depth - len(v.buf) - v.inFlight
	v.snapLen = len(v.buf)
	v.snapResv = v.resvOwner != nil
	v.snapActive = v.activeSince
	v.snapDirty = false
	r := v.router
	if i := v.freeBit(); !v.snapAllocatable() {
		r.inFree.clear(i)
	} else if !r.inFree.has(i) {
		r.inFree.set(i)
		if v.port >= r.localPorts && r.waker[v.port] >= 0 {
			clear(r.net.routers[r.waker[v.port]].blocked)
		}
	}
}

// freeBit is the VC's bit in its router's inFree, and snapAllocatable the
// predicate the bit caches: unreserved with a free slot as of the last
// commit, which canAcceptSnap needs whatever the length.
func (v *VC) freeBit() int          { return v.port*v.router.net.freeStride + v.index }
func (v *VC) snapAllocatable() bool { return !v.snapResv && v.snapFree > 0 }

// unroutedHead reports whether the front flit is a head still to be routed:
// the predicate of the VC's bit in its router's needRoute.
func (v *VC) unroutedHead() bool { return len(v.buf) > 0 && v.buf[0].IsHead() && !v.routed }

// markDirty queues the VC for a snapshot refresh at the next commit.
func (v *VC) markDirty() {
	if v.snapDirty {
		return
	}
	v.snapDirty = true
	n := v.router.net
	n.dirtyVCs = append(n.dirtyVCs, v)
}

// canAcceptSnap is CanAccept evaluated against the commit snapshot.
func (v *VC) canAcceptSnap(length int) bool {
	return !v.snapResv && v.snapFree >= length
}

// activeTimeSnap is ActiveTime evaluated against the commit snapshot.
func (v *VC) activeTimeSnap(now int64) int64 {
	if !v.snapResv {
		return 0
	}
	return now - v.snapActive
}

// SnapLen reports the buffered flit count as of the last commit — the
// occupancy reading congestion-aware routing (UGAL) uses for next-hop
// queues, stable across phase 2.
func (v *VC) SnapLen() int { return v.snapLen }

// Front returns the flit at the head of the FIFO.
func (v *VC) Front() (Flit, bool) {
	if len(v.buf) == 0 {
		return Flit{}, false
	}
	return v.buf[0], true
}

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
	if !v.routed {
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
	return v.outPort
}

// Frozen reports whether the VC is frozen by a deadlock-recovery agent.
func (v *VC) Frozen() bool { return v.frozen }

// SpinInProgress reports whether the VC is force-transmitting its frozen
// resident; the engine clears it when that packet's tail dequeues.
func (v *VC) SpinInProgress() bool { return v.spinning }

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
	if len(v.buf) >= v.depth {
		panic(fmt.Sprintf("sim: VC overflow at r%d p%d vc%d cycle %d: depth=%d inFlight=%d frozen=%v spinning=%v resv=%v arriving=%v seq=%d front=%v",
			v.router.ID, v.port, v.index, now, v.depth, v.inFlight, v.frozen, v.spinning, v.resvOwner, f.Pkt, f.Seq, v.buf[0].Pkt))
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
	v.buf = append(v.buf, f)
	v.markDirty()
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
	if v.port < r.localPorts && r.waker[v.port] >= 0 {
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
	v.routed = false
	v.target = nil
	v.outPort = -1
	if v.spinning {
		v.spinning = false
		v.router.spinningVCs--
		n := v.router.net
		if n.wants(EvSpinEnd) {
			n.emit(Event{Cycle: n.now, Kind: EvSpinEnd, Router: v.router.ID,
				Port: v.port, VC: v.index})
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
