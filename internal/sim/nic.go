package sim

// NIC is a network interface: a per-terminal source queue injecting flits
// into the attached router's terminal-port VCs (one flit per cycle) and a
// stall-free sink for ejected flits.
//
// The queue is a sliding ring over one backing array: pops advance head
// instead of reslicing the front away, so a steady-state queue reuses its
// capacity instead of reallocating on every push.
type NIC struct {
	term   int
	router *Router
	port   int // terminal input port at the router

	queue  []*Packet
	head   int // index of the front packet in queue
	cur    *Packet
	curVC  *VC
	curSeq int

	// pktSeq counts packets injected at this terminal; packet IDs are
	// derived from it (interleaved across terminals) so they are unique and
	// independent of the cross-terminal generation order.
	pktSeq int64
}

// QueueLen reports the number of packets waiting at the source, including
// the one mid-injection.
func (n *NIC) QueueLen() int { return len(n.queue) - n.head }

// push enqueues a freshly generated packet.
func (n *NIC) push(p *Packet) { n.queue = append(n.queue, p) }

// pop removes and returns the front packet.
func (n *NIC) pop() *Packet {
	p := n.queue[n.head]
	n.queue[n.head] = nil
	n.head++
	if n.head == len(n.queue) {
		n.queue = n.queue[:0]
		n.head = 0
	} else if n.head >= 32 && n.head*2 >= len(n.queue) {
		// Compact once the dead prefix dominates, keeping pushes O(1)
		// amortised without unbounded growth of the backing array.
		kept := copy(n.queue, n.queue[n.head:])
		for i := kept; i < len(n.queue); i++ {
			n.queue[i] = nil
		}
		n.queue = n.queue[:kept]
		n.head = 0
	}
	return p
}

// injectStep moves at most one flit into the router this cycle. It runs in
// phase 1 and touches only its own router's terminal VCs, which nothing
// else writes in that phase, so reservation and enqueue are live.
func (n *NIC) injectStep(net *Network) {
	now := net.now
	if n.cur == nil {
		if n.head == len(n.queue) {
			return
		}
		p := n.queue[n.head]
		v, full := n.pickVC(net, p)
		if v == nil {
			if full {
				// Only a dequeue at the terminal port can make room: sleep
				// until VC.dequeue clears the bit.
				net.nicBlocked.set(n.term)
			}
			return
		}
		n.pop()
		net.queuedPackets--
		n.cur, n.curVC, n.curSeq = p, v, 0
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
