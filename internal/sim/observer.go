package sim

// The deadlock oracle gives tests and the Fig. 3 experiment a global view
// no distributed scheme has: it decides, from the instantaneous buffer
// state, whether some set of packets can never make progress.
//
// A VC is *live* when its resident packet can eventually move: it is
// ejecting, some admissible downstream VC can accept it now, or some
// admissible downstream VC is itself live (its resident will eventually
// drain and release buffer space — arbitration is fair, so eventual space
// implies eventual progress under virtual cut-through). Non-empty, routed,
// non-live VCs are deadlocked.

// DeadlockedVC identifies a VC found in a deadlock cycle.
type DeadlockedVC struct {
	Router, Port, Index int
}

// oracleScratch is FindDeadlock's wait-for graph, kept by the network so
// that sampling a busy network allocates nothing. Node i is the occupied,
// routed VC vcs[i]; its admissible downstream VCs are deps[lo[i]:lo[i+1]].
// nodeOf maps a vcIndex to its node number plus one, zeroed on return.
type oracleScratch struct {
	vcs, deps  []*VC
	lo, nodeOf []int32
	live       []bool
}

// FindDeadlock computes the set of deadlocked VCs via a liveness fixpoint.
// An empty result means no routing deadlock exists at this instant.
// Frozen/spinning VCs in mid-recovery count as live (recovery will move
// them); tests bound how long recovery may take separately.
func (n *Network) FindDeadlock() []DeadlockedVC { return n.findDeadlock(nil) }

// findDeadlock appends FindDeadlock's answer to out.
func (n *Network) findDeadlock(out []DeadlockedVC) []DeadlockedVC {
	s := &n.oracle
	if s.nodeOf == nil {
		s.nodeOf = make([]int32, n.vcBase[len(n.routers)])
	}
	s.vcs, s.deps, s.lo, s.live = s.vcs[:0], s.deps[:0], s.lo[:0], s.live[:0]
	for _, r := range n.routers {
		total := len(r.vcFlat)
		for slot := r.FirstOccupied(0, total); slot >= 0; slot = r.FirstOccupied(slot+1, total) {
			if v := &r.vcFlat[slot]; v.is(vcRouted) {
				s.vcs = append(s.vcs, v)
				s.nodeOf[n.vcIndex(v)] = int32(len(s.vcs))
			}
		}
	}
	for _, v := range s.vcs {
		r := v.router
		s.lo = append(s.lo, int32(len(s.deps)))
		alive := false
		switch {
		case v.flags&(vcFrozen|vcSpinning) != 0:
			alive = true
		case v.WaitingToEject() || (v.target == nil && v.outPort >= 0 && int(v.outPort) < r.localPorts):
			alive = true
		case v.target != nil:
			alive = v.target.FreeSlots() > 0
			s.deps = append(s.deps, v.target)
		default:
			pkt := v.FrontPacket()
			for _, req := range v.reqs {
				first := len(s.deps)
				s.deps = r.DownstreamVCs(req.Port, pkt.VNet, req.VCMask, s.deps)
				for _, dvc := range s.deps[first:] {
					alive = alive || dvc.CanAccept(pkt.Length)
				}
				if alive = alive || req.Port < r.localPorts; alive {
					break
				}
			}
		}
		s.live = append(s.live, alive)
	}
	s.lo = append(s.lo, int32(len(s.deps)))
	// Propagate liveness backwards to a fixpoint: v is live if any
	// dependency is live (space will eventually appear there).
	for changed := true; changed; {
		changed = false
		for i := range s.vcs {
			if s.live[i] {
				continue
			}
			for _, dvc := range s.deps[s.lo[i]:s.lo[i+1]] {
				// A dependency that holds no routed resident is draining
				// space or idle-but-reserved; a reserved-but-empty VC counts
				// as live (its owner is moving).
				if j := s.nodeOf[n.vcIndex(dvc)]; j > 0 && s.live[j-1] || j == 0 && (dvc.resvOwner == nil || len(dvc.buf) == 0) {
					s.live[i], changed = true, true
					break
				}
			}
		}
	}
	for i, v := range s.vcs {
		s.nodeOf[n.vcIndex(v)] = 0
		if !s.live[i] {
			out = append(out, DeadlockedVC{Router: v.router.ID, Port: v.Port(), Index: v.Index()})
		}
	}
	return out
}

// Deadlocked reports whether any deadlocked VC exists right now.
func (n *Network) Deadlocked() bool { return len(n.FindDeadlock()) > 0 }
