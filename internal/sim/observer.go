package sim

import "repro/internal/graph"

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
//
// FindDeadlock builds the wait-for graph of the occupied, routed VCs, each
// edge a dependency on another such VC, and hands it to graph.Scratch.Live,
// which decides liveness one strongly connected component at a time.

// DeadlockedVC identifies a VC found in a deadlock cycle.
type DeadlockedVC struct {
	Router, Port, Index int
}

// oracleScratch is FindDeadlock's wait-for graph, kept by the network so
// that sampling a busy network allocates nothing. Node i is the occupied,
// routed VC vcs[i], live[i] whether it is live by itself, and its
// dependencies on other nodes are adj[lo[i]:lo[i+1]]. deps holds one VC's
// admissible downstream VCs while they are sorted into nodes and the rest.
// nodeOf maps a vcIndex to its node number plus one, zeroed on return.
type oracleScratch struct {
	vcs, deps       []*VC
	lo, adj, nodeOf []int32
	live            []bool
	scc             graph.Scratch
}

// FindDeadlock computes the set of deadlocked VCs: the nodes of the
// wait-for graph from which no path leads to a live one. An empty result
// means no routing deadlock exists at this instant. Frozen/spinning VCs in
// mid-recovery count as live (recovery will move them); tests bound how
// long recovery may take separately.
func (n *Network) FindDeadlock() []DeadlockedVC { return n.findDeadlock(nil) }

// findDeadlock appends FindDeadlock's answer to out.
func (n *Network) findDeadlock(out []DeadlockedVC) []DeadlockedVC {
	s := &n.oracle
	if s.nodeOf == nil {
		s.nodeOf = make([]int32, n.vcBase[len(n.routers)])
	}
	s.vcs, s.lo, s.adj, s.live = s.vcs[:0], s.lo[:0], s.adj[:0], s.live[:0]
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
		s.lo = append(s.lo, int32(len(s.adj)))
		s.deps = s.deps[:0]
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
		for _, dvc := range s.deps {
			// A dependency that holds no routed resident is draining space
			// or idle-but-reserved; a reserved-but-empty VC counts as live
			// (its owner is moving), a reserved, occupied one for nothing.
			if j := s.nodeOf[n.vcIndex(dvc)]; j > 0 {
				s.adj = append(s.adj, j-1)
			} else if dvc.resvOwner == nil || len(dvc.buf) == 0 {
				alive = true
			}
		}
		s.live = append(s.live, alive)
	}
	s.lo = append(s.lo, int32(len(s.adj)))
	s.scc.Live(s.lo, s.adj, s.live)
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
