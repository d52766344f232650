package sim

import "repro/internal/topology"

// flitTransit is a flit in flight: an entry of the network's arrival wheel
// (see Network.deliverArrivals), naming the VC it lands in and the link it
// crosses.
type flitTransit struct {
	flit Flit
	dst  *VC
	link *link
}

// smTransit is a special message in flight on a link.
type smTransit struct {
	arrive int64
	sm     *SM
}

// link is the runtime state of one directed channel. Links are pipelined:
// one flit (or one SM) may enter per cycle and each traversal takes
// Latency cycles. Its flits in flight are on the network's arrival wheel;
// its SMs are queued here, in send order, which with a fixed latency is
// arrival order.
type link struct {
	topo   topology.Link
	index  int
	dst    *Router
	global bool // dragonfly global channel (precomputed at build)

	sms []smTransit

	// Utilisation accounting (measured window only).
	flitCycles int64
	smCycles   [numSMKinds]int64
}

// routerDelay is the per-hop router pipeline in cycles: a 1-cycle router.
const routerDelay = 1

// sendFlit launches a flit over l: it occupies the wire for Latency cycles
// and then the downstream router pipeline for routerDelay cycles before it
// becomes serviceable in dst. It is filed in the wheel slot of that cycle;
// the wheel has one slot per cycle of the longest delay, so the slot index
// wraps at most once.
func (n *Network) sendFlit(l *link, f Flit, dst *VC) {
	s := n.wheelPos + l.topo.Latency + routerDelay
	if s >= len(n.wheel) {
		s -= len(n.wheel)
	}
	n.wheel[s] = append(n.wheel[s], flitTransit{flit: f, dst: dst, link: l})
}

// sendSM launches an SM over l, which lands Latency cycles on, and marks l
// in linkActive for phase 1 to find.
func (n *Network) sendSM(l *link, sm *SM) {
	l.sms = append(l.sms, smTransit{arrive: n.now + int64(l.topo.Latency), sm: sm})
	n.linkActive.set(l.index)
}
