package sim

import "repro/internal/topology"

// flitTransit is a flit in flight on a link.
type flitTransit struct {
	arrive int64
	flit   Flit
	dst    *VC
}

// smTransit is a special message in flight on a link.
type smTransit struct {
	arrive int64
	sm     *SM
}

// link is the runtime state of one directed channel. Links are pipelined:
// one flit (or one SM) may enter per cycle and each traversal takes
// Latency cycles.
type link struct {
	topo   topology.Link
	index  int
	dst    *Router
	global bool // dragonfly global channel (precomputed at build)

	flits []flitTransit
	sms   []smTransit

	// Utilisation accounting (measured window only).
	flitCycles int64
	smCycles   [numSMKinds]int64
}

// routerDelay is the per-hop router pipeline in cycles: a 1-cycle router.
const routerDelay = 1

// sendFlit launches a flit: it occupies the wire for Latency cycles and
// then the downstream router pipeline for routerDelay cycles before it
// becomes serviceable in dst.
func (l *link) sendFlit(now int64, f Flit, dst *VC) {
	delay := int64(l.topo.Latency + routerDelay)
	l.flits = append(l.flits, flitTransit{arrive: now + delay, flit: f, dst: dst})
}

func (l *link) sendSM(now int64, sm *SM) {
	l.sms = append(l.sms, smTransit{arrive: now + int64(l.topo.Latency), sm: sm})
}

// takeArrivals moves flits and SMs whose arrival cycle is now into the
// supplied buffers, compacting the in-flight lists in place.
func (l *link) takeArrivals(now int64, flits []flitTransit, sms []smTransit) ([]flitTransit, []smTransit) {
	if len(l.flits) > 0 {
		keep := l.flits[:0]
		for _, t := range l.flits {
			if t.arrive <= now {
				flits = append(flits, t)
			} else {
				keep = append(keep, t)
			}
		}
		l.flits = keep
	}
	if len(l.sms) > 0 {
		keep := l.sms[:0]
		for _, t := range l.sms {
			if t.arrive <= now {
				sms = append(sms, t)
			} else {
				keep = append(keep, t)
			}
		}
		l.sms = keep
	}
	return flits, sms
}
