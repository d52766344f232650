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

// BlockRecs is how many queued records a NIC's backlog block holds.
const BlockRecs = blockRecs

// RecordBlocks reports the record blocks n's NICs hold, the blocks on its
// free list, and the blocks its chunks hold, which Reset puts back on it.
func RecordBlocks(n *Network) (held, free, carved int) {
	for _, nic := range n.nics {
		for b := nic.head; b != nil; b = b.next {
			held++
		}
	}
	for b := n.freeBlocks; b != nil; b = b.next {
		free++
	}
	return held, free, len(n.blockChunks) * blockChunk
}

// LeakBlock takes a record block off n's free list and drops it, as a NIC
// that lost track of one would.
func LeakBlock(n *Network) { n.takeBlock() }

// InjectPooled queues a packet at src the way the traffic path does: as a
// record, whose packet is drawn from the free list at the front.
func InjectPooled(n *Network, src int, spec PacketSpec) { n.generate(src, spec) }

// FlitsOnLinks counts the flits in flight between routers.
func FlitsOnLinks(n *Network) (k int) {
	for _, slot := range n.wheel {
		k += len(slot)
	}
	return k
}

// AppendDeadlock is FindDeadlock appending to out, the form the checker
// samples with: what the oracle's allocation budget is measured on.
func AppendDeadlock(n *Network, out []DeadlockedVC) []DeadlockedVC { return n.findDeadlock(out) }

// ReferenceDeadlock is the oracle as a repeat-until-unchanged liveness
// fixpoint over the wait-for graph of VCs, with no scratch kept: the
// reference FindDeadlock's closure over strongly connected components must
// agree with, VC for VC and in the same order.
func ReferenceDeadlock(n *Network) []DeadlockedVC {
	var vcs, deps []*VC
	var lo []int
	var live []bool
	nodeOf := map[*VC]int{}
	for _, r := range n.routers {
		total := len(r.vcFlat)
		for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
			if v := &r.vcFlat[slot]; v.is(vcRouted) {
				vcs = append(vcs, v)
				nodeOf[v] = len(vcs)
			}
		}
	}
	for _, v := range vcs {
		r := v.router
		lo = append(lo, len(deps))
		alive := false
		switch {
		case v.flags&(vcFrozen|vcSpinning) != 0:
			alive = true
		case v.WaitingToEject() || (v.target == nil && v.outPort >= 0 && int(v.outPort) < r.localPorts):
			alive = true
		case v.target != nil:
			alive = v.target.FreeSlots() > 0
			deps = append(deps, v.target)
		default:
			pkt := v.FrontPacket()
			for _, req := range v.reqs {
				first := len(deps)
				deps = r.DownstreamVCs(req.Port, pkt.VNet, req.VCMask, deps)
				for _, dvc := range deps[first:] {
					alive = alive || dvc.CanAccept(pkt.Length)
				}
				if alive = alive || req.Port < r.localPorts; alive {
					break
				}
			}
		}
		live = append(live, alive)
	}
	lo = append(lo, len(deps))
	for changed := true; changed; {
		changed = false
		for i := range vcs {
			if live[i] {
				continue
			}
			for _, dvc := range deps[lo[i]:lo[i+1]] {
				if j := nodeOf[dvc]; j > 0 && live[j-1] || j == 0 && (dvc.resvOwner == nil || len(dvc.buf) == 0) {
					live[i], changed = true, true
					break
				}
			}
		}
	}
	var out []DeadlockedVC
	for i, v := range vcs {
		if !live[i] {
			out = append(out, DeadlockedVC{Router: v.router.ID, Port: v.Port(), Index: v.Index()})
		}
	}
	return out
}
