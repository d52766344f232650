// Package bubble implements the flow-control family of deadlock-freedom
// schemes the paper compares against:
//
//   - RingBubble: localized Bubble Flow Control (Carrion et al.) for
//     ring/torus networks — a packet may enter a ring only if the move
//     leaves at least one free packet buffer in it, so the ring can always
//     rotate.
//   - StaticBubble: the mesh deadlock-*recovery* scheme of Ramrakhyani &
//     Krishna (HPCA 2017), modelled as a reserved per-router recovery
//     buffer (VC 0) that normal traffic may not occupy and that a
//     timeout-detected blocked packet escapes into, draining over an
//     acyclic dimension-ordered path.
package bubble

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// RingBubble is bubble flow control on a torus/ring with dimension-ordered
// routing: intra-ring movement is unrestricted; ring entry (injection or
// dimension change) requires one spare packet slot beyond the one being
// claimed.
type RingBubble struct {
	Mesh *topology.Mesh // torus
}

// Name implements sim.Scheme.
func (b *RingBubble) Name() string { return "bubble_fc" }

// Attach implements sim.Scheme.
func (b *RingBubble) Attach(n *sim.Network) {
	for i := 0; i < n.NumRouters(); i++ {
		n.SetAgent(i, &ringAgent{scheme: b, r: n.Router(i)})
	}
}

type ringAgent struct {
	sim.BaseAgent
	scheme *RingBubble
	r      *sim.Router
}

// Quiescent implements sim.Agent: bubble flow control is a pure
// send/inject filter with a no-op Tick, so the agent never needs the
// engine's agent phase.
func (a *ringAgent) Quiescent() bool { return true }

// ringOf classifies a VC's link into its ring: dimension (0 = x, 1 = y)
// and the fixed coordinate. Terminal ports return (-1, -1).
func (b *RingBubble) ringOf(router, port int) (int, int) {
	if port < 1 || port > 4 {
		return -1, -1
	}
	x, y := b.Mesh.Coords(router)
	switch topology.MeshDirection(port) {
	case topology.East, topology.West:
		return 0, y
	default:
		return 1, x
	}
}

// ringHasSpareBubble counts free packet buffers in the ring of (router,
// outPort) excluding the one at dvc, requiring at least one more. It reads
// the live VC state of every router on the ring, not the commit snapshots,
// so a ring-bubble run depends on phase 2 visiting routers in ascending
// order (the order its goldens encode): it sees every lower router after
// its switch allocation and every higher one before. Nothing else in a
// visit changes what it reads, since ring bubble never spins.
func (b *RingBubble) ringHasSpareBubble(n *sim.Network, router, outPort int, dvc *sim.VC, length int) bool {
	dim, coord := b.ringOf(router, outPort)
	if dim < 0 {
		return true
	}
	free := 0
	for r := 0; r < n.NumRouters(); r++ {
		x, y := b.Mesh.Coords(r)
		if (dim == 0 && y != coord) || (dim == 1 && x != coord) {
			continue
		}
		rt := n.Router(r)
		for p := 1; p <= 4; p++ {
			if d, c := b.ringOf(r, p); d != dim || c != coord {
				continue
			}
			// Input VCs fed by this ring live at the far end of the link.
			down, inPort, ok := rt.Downstream(p)
			if !ok {
				continue
			}
			for k := 0; k < down.VCsPerPort(); k++ {
				v := down.VC(inPort, k)
				if v == dvc {
					continue
				}
				if v.CanAccept(length) {
					free++
					if free >= 1 {
						return true
					}
				}
			}
		}
	}
	return false
}

// FilterSend implements sim.Agent: dimension changes must leave a bubble.
func (a *ringAgent) FilterSend(vc *sim.VC, outPort int, dvc *sim.VC) bool {
	sameRing := false
	if vc.Port() >= 1 && vc.Port() <= 4 {
		d1, c1 := a.scheme.ringOf(a.r.ID, outPort)
		// The input port belongs to the same ring when its direction is the
		// same dimension at the same coordinate.
		d0, c0 := a.scheme.ringOf(a.r.ID, vc.Port())
		sameRing = d0 == d1 && c0 == c1
	}
	if sameRing {
		return true
	}
	p := vc.FrontPacket()
	if p == nil {
		return true
	}
	return a.scheme.ringHasSpareBubble(a.r.Net(), a.r.ID, outPort, dvc, p.Length)
}

// FilterInject implements sim.Agent: injection is a ring entry.
func (a *ringAgent) FilterInject(vc *sim.VC, p *sim.Packet) bool {
	// The injected packet's first hop ring is determined by its route;
	// conservatively require a spare bubble in both rings through this
	// router that DOR could enter.
	for _, port := range []int{1, 2, 3, 4} {
		if _, _, ok := a.r.Downstream(port); !ok {
			continue
		}
		if !a.scheme.ringHasSpareBubble(a.r.Net(), a.r.ID, port, nil, p.Length) {
			return false
		}
	}
	return true
}
