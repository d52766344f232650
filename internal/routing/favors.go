package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// FAvORS is the paper's Fully Adaptive One-VC Routing with Spin
// (Section V). The per-hop component is minimal adaptive routing with the
// free-VC / least-active-VC selection function (MinAdaptive implements
// exactly that); this type adds the non-minimal source decision:
//
// The source router first looks for a minimal first hop with a free VC.
// If none exists it considers one random intermediate router and compares
//
//	Hmin + tactive_min  >  Hnonmin + tactive_nonmin
//
// choosing the Valiant path when the inequality holds. The packet is
// misrouted at most once (p = 1), so SPIN's non-minimal resolution bound
// applies and the algorithm is livelock-free.
type FAvORS struct {
	Topo topology.Topology
	// NonMinimal enables the source-side Valiant decision (FAvORS-NMin);
	// false gives FAvORS-Min.
	NonMinimal bool

	// AtSource compares the minimal and Valiant port sets side by side, so
	// it needs two live buffers; Route reuses the first.
	scratch  []int
	scratch2 []int
}

// Name implements sim.RoutingAlgorithm.
func (f *FAvORS) Name() string {
	if f.NonMinimal {
		return "favors_nmin"
	}
	return "favors_min"
}

// AtSource implements sim.RoutingAlgorithm.
func (f *FAvORS) AtSource(r *sim.Router, p *sim.Packet) {
	if !f.NonMinimal || p.SrcRouter == p.DstRouter {
		return
	}
	src, dst := p.SrcRouter, p.DstRouter
	f.scratch = f.Topo.MinimalPortsInto(f.scratch[:0], src, dst)
	minPorts := f.scratch
	if len(minPorts) == 0 {
		return
	}
	// A free VC on some minimal first hop means a lightly loaded network:
	// route minimally.
	for _, port := range minPorts {
		if r.FreeVCAt(port, p.VNet, sim.AllVCs, p.Length) {
			return
		}
	}
	// Congested: consider one random intermediate node.
	mid := r.RNG().Intn(f.Topo.NumRouters())
	if mid == src || mid == dst {
		return
	}
	f.scratch2 = f.Topo.MinimalPortsInto(f.scratch2[:0], src, mid)
	midPorts := f.scratch2
	if len(midPorts) == 0 {
		return
	}
	hMin := int64(f.Topo.Distance(src, dst))
	hNon := int64(f.Topo.Distance(src, mid) + f.Topo.Distance(mid, dst))
	tMin := minActiveOver(r, minPorts, p)
	tNon := minActiveOver(r, midPorts, p)
	if hMin+tMin > hNon+tNon {
		p.Intermediate = mid
	}
}

// minActiveOver reports the smallest downstream-VC active time over ports.
func minActiveOver(r *sim.Router, ports []int, p *sim.Packet) int64 {
	best := int64(1) << 62
	for _, port := range ports {
		if t := r.MinActiveTime(port, p.VNet, sim.AllVCs); t < best {
			best = t
		}
	}
	return best
}

// Valiant reports whether AtSource may route a packet via an intermediate.
func (f *FAvORS) Valiant() bool { return f.NonMinimal }

// Candidates implements cdg.Routing: every minimal port toward the
// phase-local destination, on any VC.
func (f *FAvORS) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	f.scratch = f.Topo.MinimalPortsInto(f.scratch[:0], router, p.RouteDst())
	return requests(buf, f.scratch, sim.AllVCs)
}

// Route implements sim.RoutingAlgorithm: minimal adaptive toward the
// phase-local destination with the FAvORS selection function.
func (f *FAvORS) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return pickOne(f, r, inPort, p, buf)
}
