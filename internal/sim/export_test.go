package sim

// ObserveBuilt adds p to the observer list without widening the union
// mask, so p hears every event an emission site builds whether or not
// anyone asked for its kind. Test-only: it is how the event-spine tests
// count wasted constructions.
func (n *Network) ObserveBuilt(p Probe) {
	n.observers = append(n.observers, observer{AllEvents, p})
}

// ResetStallIndex rebuilds n's stall index by full scan: every sleeper is
// woken (blocked and nicBlocked emptied) and needRoute and inFree are
// recomputed from the state they cache. A network reset before every Step
// is the re-scanning engine the index replaced; TestStallIndexParity steps
// one in lock-step with the product as its oracle.
func ResetStallIndex(n *Network) {
	for _, r := range n.routers {
		clear(r.blocked)
		clear(r.needRoute)
		clear(r.inFree)
		for slot := range r.vcFlat {
			v := &r.vcFlat[slot]
			if v.unroutedHead() {
				r.needRoute.set(slot)
			}
			if v.snapAllocatable() {
				r.inFree.set(v.freeBit())
			}
		}
	}
	clear(n.nicBlocked)
}

// SAVisits reports how many switch-allocation turns n has handed out.
func SAVisits(n *Network) int64 { return n.saVisits }

// PermutePhase2 makes every later Step hand phase 2's router list to f to
// reorder in place (nil restores the ascending walk). It is the
// order-invariance oracle's hook: under the engine's contract no
// permutation changes what a run computes.
func PermutePhase2(n *Network, f func([]*Router)) { n.permute = f }

// PooledPackets reports the length of n's packet free list and how many
// packets the chunks hold that Reset puts back on it.
func PooledPackets(n *Network) (free, owned int) { return len(n.pktPool), len(n.pktChunks) * pktChunk }

// InjectPooled queues a packet at src the way the traffic path does: as a
// record, whose packet is drawn from the free list at the front.
func InjectPooled(n *Network, src int, spec PacketSpec) { n.generate(src, spec) }

// FlitsOnLinks counts the flits in flight between routers.
func FlitsOnLinks(n *Network) (k int) {
	for _, l := range n.links {
		k += len(l.flits)
	}
	return k
}
