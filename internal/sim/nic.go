package sim

// NIC is a network interface: a per-terminal source queue injecting flits
// into the attached router's terminal-port VCs (one flit per cycle) and a
// stall-free sink for ejected flits.
//
// The source queue holds no packets. Each generated packet waits as a
// queued record in a chain of fixed-size blocks drawn from the network's
// free list (see recBlock): a NIC takes a block when its tail block fills
// and hands one back as soon as it drains, its last one included, so idle
// terminals hold none and a backlog is never copied. Only the front record
// becomes a *Packet, when the NIC first tries to inject it (pickVC and the
// scheme's injection filter need one). Live packets are therefore bounded
// by what the network can hold, not by the backlog.
type NIC struct {
	term   int
	router *Router
	port   int // terminal input port at the router

	head, tail *recBlock // first and last block of the backlog; nil when empty
	off, fill  uint16    // front record's index in head; records written to tail
	size       uint32    // records queued
	front      *Packet   // the front record's packet, once materialised
	cur        *Packet
	curVC      *VC
	curSeq     int

	// pktSeq counts packets generated at this terminal; packet IDs are
	// derived from it (interleaved across terminals) so they are unique and
	// independent of the cross-terminal generation order. The front
	// record's packet is number pktSeq-size.
	pktSeq int64
}

// queued is a packet waiting at its source: what the traffic source and
// the routing's AtSource decided, and nothing the terminal already knows.
type queued struct {
	// gen is GenCycle's low 32 bits: a record waits less than 2^32 cycles,
	// so the cycle it reaches the front at gives back the rest.
	gen          uint32
	dst          int32
	intermediate int32
	length, vnet uint8
	// ext marks an InjectPacket packet: the caller holds its *Packet, which
	// waits in Network.extPkts under its ID.
	ext bool
}

// QueueLen reports the number of packets waiting at the source, not
// counting the one mid-injection.
func (n *NIC) QueueLen() int { return int(n.size) }

// recBlock is a run of blockRecs queued records, linked into a NIC's
// backlog or the network's free list. The link comes first, so the
// collector scans one word of a block, not its records.
type recBlock struct {
	next *recBlock
	recs [blockRecs]queued
}

// blockRecs records make a block: 8 + 16 x 16 B = 264 B.
const blockRecs = 16

// push enqueues a freshly generated packet's record, taking a block from
// the free list when the tail block is full.
func (n *NIC) push(net *Network, q queued) {
	if n.tail == nil || n.fill == blockRecs {
		b := net.takeBlock()
		if n.tail == nil {
			n.head = b
		} else {
			n.tail.next = b
		}
		n.tail, n.fill = b, 0
	}
	n.tail.recs[n.fill] = q
	n.fill++
	n.size++
}

// pop drops the front record, handing its block back once it is drained:
// the front block when the next record is in the one behind it, the last
// block when the queue empties.
func (n *NIC) pop(net *Network) {
	n.off++
	n.size--
	switch {
	case n.size == 0:
		net.putBlock(n.head)
		n.head, n.tail, n.off = nil, nil, 0
	case n.off == blockRecs:
		b := n.head
		n.head, n.off = b.next, 0
		net.putBlock(b)
	}
}

// frontRec is the front record; the queue must not be empty.
func (n *NIC) frontRec() *queued { return &n.head.recs[n.off] }

// materialise returns the front record's packet: the caller's own for an
// InjectPacket record, else one drawn from the free list and filled in.
func (n *NIC) materialise(net *Network) *Packet {
	q := n.frontRec()
	id := net.packetID(n.term, n.pktSeq-int64(n.size))
	if q.ext {
		p := net.extPkts[id]
		delete(net.extPkts, id)
		return p
	}
	p := net.allocPacket()
	net.fillPacket(p, n.term, id, q)
	return p
}

// injectStep moves at most one flit into the router this cycle. It runs in
// phase 1 and touches only its own router's terminal VCs, which nothing
// else writes in that phase, so reservation and enqueue are live.
func (n *NIC) injectStep(net *Network) {
	now := net.now
	if n.cur == nil {
		if n.size == 0 {
			return
		}
		if n.front == nil {
			n.front = n.materialise(net)
		}
		p := n.front
		v, full := n.pickVC(net, p)
		if v == nil {
			if full {
				// Only a dequeue at the terminal port can make room: sleep
				// until VC.dequeue clears the bit.
				net.nicBlocked.set(n.term)
			}
			return
		}
		n.pop(net)
		net.queuedPackets--
		n.cur, n.curVC, n.curSeq, n.front = p, v, 0, nil
		p.InjectCycle = now
		net.inNetwork++
		v.reserve(p, now, false)
		if net.wants(EvPacketInject) {
			net.emit(Event{Cycle: now, Kind: EvPacketInject, Router: n.router.ID,
				Port: n.port, VC: v.Index(), Packet: p.ID, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Len: p.Length})
		}
	}
	n.curVC.enqueue(Flit{Pkt: n.cur, Seq: n.curSeq}, now)
	if net.measuring() {
		net.stats.BufferWrites++
	}
	net.stats.InjectedFlits++
	if net.wants(EvFlitInject) {
		net.emit(Event{Cycle: now, Kind: EvFlitInject, Router: n.router.ID,
			Port: n.port, VC: n.curVC.Index(), Packet: n.cur.ID, VNet: n.cur.VNet})
	}
	n.curSeq++
	if n.curSeq == n.cur.Length {
		net.stats.Injected++
		n.cur, n.curVC, n.curSeq = nil, nil, 0
	}
}

// pickVC selects an input VC of the packet's vnet at the terminal port,
// honouring virtual cut-through and the scheme's injection filter. With no
// VC to return, full reports that none had room at all (as opposed to the
// filter refusing one that did).
func (n *NIC) pickVC(net *Network, p *Packet) (v *VC, full bool) {
	full = true
	base := p.VNet * net.cfg.VCsPerVNet
	for k := 0; k < net.cfg.VCsPerVNet; k++ {
		v := &n.router.in[n.port][base+k]
		if !v.CanAccept(p.Length) {
			continue
		}
		if n.router.agent != nil && !n.router.agent.FilterInject(v, p) {
			full = false
			continue
		}
		return v, false
	}
	return nil, full
}
