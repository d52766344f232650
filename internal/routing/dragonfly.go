package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// DflyMinimal is minimal adaptive dragonfly routing (local hop, global
// hop, local hop). VCPolicy selects the deadlock-freedom style: with
// VCLadder the Dally global-hop ladder restricts VC use (VC index =
// global hops taken, the classic avoidance scheme); with VCFree packets
// use any VC and rely on a recovery scheme such as SPIN.
type DflyMinimal struct {
	sim.BaseRouting
	Dfly     *topology.Dragonfly
	VCLadder bool
	VCs      int // VCs per vnet, needed for ladder masks

	tbl     *portTable // lazily built canonical paths (ladder mode only)
	scratch []int
}

// Name implements sim.RoutingAlgorithm.
func (d *DflyMinimal) Name() string {
	if d.VCLadder {
		return "dfly_min_ladder"
	}
	return "dfly_min"
}

// LadderMask maps a packet's global-hop count to its admissible VC under
// Dally's theory: the VC index must equal the number of global channels
// already crossed, which makes the extended CDG acyclic. A count past the
// top rung clamps to it, so a ladder with fewer VCs than a path has global
// hops shares its top VC between them and can deadlock; the routing table
// of the root package sets each ladder's VC floor so that cannot happen.
// internal/cdg models the ladders with this same function.
func LadderMask(globalHops, vcs int) uint32 {
	k := globalHops
	if k >= vcs {
		k = vcs - 1
	}
	return 1 << uint(k)
}

// minPorts picks the path model: the VC ladder requires canonical
// local-global-local minimal paths (a second global hop would outrun the
// ladder); free-VC configurations may use any BFS-minimal port. Both
// variants serve from precomputed tables; the result is valid until the
// next call on this instance.
func (d *DflyMinimal) minPorts(r, dst int) []int {
	if d.VCLadder {
		if d.tbl == nil {
			d.tbl = canonicalPortTable(d.Dfly)
		}
		d.scratch = d.tbl.appendPorts(d.scratch[:0], r, dst)
		return d.scratch
	}
	d.scratch = d.Dfly.MinimalPortsInto(d.scratch[:0], r, dst)
	return d.scratch
}

// canonicalPortTable precomputes CanonicalMinimalPorts for all pairs.
func canonicalPortTable(dfly *topology.Dragonfly) *portTable {
	return buildPortTable(dfly.NumRouters(), dfly.CanonicalMinimalPorts)
}

// Route implements sim.RoutingAlgorithm.
func (d *DflyMinimal) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	dst := p.RouteDst()
	ports := d.minPorts(r.ID, dst)
	mustPorts(d.Name(), ports, r.ID, dst)
	mask := sim.AllVCs
	if d.VCLadder {
		mask = LadderMask(p.GlobalHops, d.VCs)
	}
	port := pickAdaptive(r, ports, p.VNet, mask, p.Length)
	return append(buf, sim.PortRequest{Port: port, VCMask: mask})
}

// UGAL is the Universal Globally-Adaptive Load-balanced dragonfly routing:
// at the source the packet picks minimal or Valiant (via a random
// intermediate group) by comparing queue-weighted path lengths; en route
// it routes minimally toward the phase target. With VCLadder it uses the
// commercial Dally-style VC-per-global-hop discipline (3 VCs); with
// VCFree (UGAL+SPIN) packets use any free VC.
type UGAL struct {
	Dfly     *topology.Dragonfly
	VCLadder bool
	VCs      int

	tbl     *portTable // lazily built canonical paths (ladder mode only)
	scratch []int
	vcBuf   []*sim.VC
}

// Name implements sim.RoutingAlgorithm.
func (u *UGAL) Name() string {
	if u.VCLadder {
		return "ugal_ladder"
	}
	return "ugal_spin"
}

// AtSource implements sim.RoutingAlgorithm: the UGAL-L decision.
// Congestion is estimated from downstream VC occupancy on the candidate
// first hops, the in-hardware analogue of output-queue length.
func (u *UGAL) AtSource(r *sim.Router, p *sim.Packet) {
	src, dst := p.SrcRouter, p.DstRouter
	if src == dst {
		return
	}
	topo := u.Dfly
	hMin := topo.Distance(src, dst)
	qMin := u.portCongestion(r, u.minPorts(src, dst), p)
	// Candidate intermediate: a random router in a random other group
	// (Valiant over groups).
	g := topo.Group(src)
	gd := topo.Group(dst)
	mid := -1
	for try := 0; try < 4; try++ {
		cand := r.RNG().Intn(topo.NumRouters())
		cg := topo.Group(cand)
		if cg != g && cg != gd {
			mid = cand
			break
		}
	}
	if mid < 0 {
		return
	}
	hNon := topo.Distance(src, mid) + topo.Distance(mid, dst)
	qNon := u.portCongestion(r, u.minPorts(src, mid), p)
	// UGAL-L: go non-minimal when the queue-weighted minimal cost exceeds
	// the non-minimal one.
	if qMin*int64(hMin) > qNon*int64(hNon) {
		p.Intermediate = mid
	}
}

// portCongestion reports the minimum buffered-flit load over the
// candidate ports' downstream VCs.
func (u *UGAL) portCongestion(r *sim.Router, ports []int, p *sim.Packet) int64 {
	if len(ports) == 0 {
		return 1 << 30
	}
	mask := sim.AllVCs
	if u.VCLadder {
		mask = LadderMask(0, u.VCs)
	}
	best := int64(1) << 30
	for _, port := range ports {
		u.vcBuf = r.DownstreamVCs(port, p.VNet, mask, u.vcBuf[:0])
		var occ int64
		for _, vc := range u.vcBuf {
			occ += int64(vc.SnapLen())
		}
		if occ < best {
			best = occ
		}
	}
	return best
}

// minPorts mirrors DflyMinimal.minPorts for the UGAL phases. The result
// aliases the instance scratch buffer and is valid until the next call.
func (u *UGAL) minPorts(r, dst int) []int {
	if u.VCLadder {
		if u.tbl == nil {
			u.tbl = canonicalPortTable(u.Dfly)
		}
		u.scratch = u.tbl.appendPorts(u.scratch[:0], r, dst)
		return u.scratch
	}
	u.scratch = u.Dfly.MinimalPortsInto(u.scratch[:0], r, dst)
	return u.scratch
}

// Route implements sim.RoutingAlgorithm.
func (u *UGAL) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	// Valiant routing over groups: the misroute phase ends as soon as the
	// packet enters the intermediate *group*, not a specific router —
	// otherwise the path takes two consecutive intra-group hops there,
	// which creates intra-class local-channel cycles the VC ladder cannot
	// order away.
	if p.Intermediate >= 0 && p.Phase == 0 && u.Dfly.Group(r.ID) == u.Dfly.Group(p.Intermediate) {
		p.Phase = 1
	}
	dst := p.RouteDst()
	ports := u.minPorts(r.ID, dst)
	mustPorts(u.Name(), ports, r.ID, dst)
	mask := sim.AllVCs
	if u.VCLadder {
		mask = LadderMask(p.GlobalHops, u.VCs)
	}
	port := pickAdaptive(r, ports, p.VNet, mask, p.Length)
	return append(buf, sim.PortRequest{Port: port, VCMask: mask})
}
