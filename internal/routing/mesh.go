package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// XY is dimension-ordered mesh routing: correct X first, then Y. Its
// channel dependency graph is acyclic, so it is deadlock-free with any
// number of VCs (Dally's theory, fully restricted).
type XY struct {
	sim.BaseRouting
	Mesh *topology.Mesh

	tbl []uint8 // lazily built n×n dimension-ordered port table
}

// Name implements sim.RoutingAlgorithm.
func (x *XY) Name() string { return "xy" }

// Candidates implements cdg.Routing: the one dimension-ordered port.
func (x *XY) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if x.tbl == nil {
		x.tbl = buildXYTable(x.Mesh)
	}
	port := int(x.tbl[router*x.Mesh.NumRouters()+p.RouteDst()])
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
}

// Route implements sim.RoutingAlgorithm.
func (x *XY) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return x.Candidates(r.ID, inPort, p, buf)
}

// buildXYTable precomputes XYPort for every (cur, dst) pair.
func buildXYTable(m *topology.Mesh) []uint8 {
	n := m.NumRouters()
	tbl := make([]uint8, n*n)
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			tbl[cur*n+dst] = uint8(XYPort(m, cur, dst))
		}
	}
	return tbl
}

// XYPort computes the dimension-ordered output port from cur toward dst.
func XYPort(m *topology.Mesh, cur, dst int) int {
	cx, cy := m.Coords(cur)
	dx, dy := m.Coords(dst)
	switch {
	case dx > cx:
		return topology.MeshPort(topology.East)
	case dx < cx:
		return topology.MeshPort(topology.West)
	case dy > cy:
		return topology.MeshPort(topology.North)
	default:
		return topology.MeshPort(topology.South)
	}
}

// TorusDOR is dimension-ordered torus routing: correct X first, then Y,
// each the shorter way round its ring. With one VC its CDG is cyclic
// around every ring, the classic case for bubble flow control
// (ring_bubble) and dateline VCs.
type TorusDOR struct {
	sim.BaseRouting
	Mesh *topology.Mesh
}

// Name implements sim.RoutingAlgorithm.
func (t *TorusDOR) Name() string { return "torus_dor" }

// Candidates implements cdg.Routing: the one dimension-ordered port.
func (t *TorusDOR) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return append(buf, sim.PortRequest{Port: torusDORPort(t.Mesh, router, p.RouteDst()), VCMask: sim.AllVCs})
}

// Route implements sim.RoutingAlgorithm.
func (t *TorusDOR) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return t.Candidates(r.ID, inPort, p, buf)
}

// torusDORPort is TorusDOR's output port from cur toward dst (cur != dst),
// east or north when both ways round are equally short.
func torusDORPort(m *topology.Mesh, cur, dst int) int {
	cx, cy := m.Coords(cur)
	dx, dy := m.Coords(dst)
	if cx != dx {
		if east := (dx - cx + m.X) % m.X; east <= m.X-east {
			return topology.MeshPort(topology.East)
		}
		return topology.MeshPort(topology.West)
	}
	if north := (dy - cy + m.Y) % m.Y; north <= m.Y-north {
		return topology.MeshPort(topology.North)
	}
	return topology.MeshPort(topology.South)
}

// WestFirst is the turn-model partially-adaptive mesh routing: a packet
// whose destination lies to the west must travel west first; all other
// packets route adaptively among their minimal directions (none of which
// can ever be west again). The resulting CDG is acyclic.
type WestFirst struct {
	sim.BaseRouting
	Mesh *topology.Mesh

	tbl     *portTable // lazily built west-first port sets
	scratch []int
}

// Name implements sim.RoutingAlgorithm.
func (w *WestFirst) Name() string { return "westfirst" }

// Candidates implements cdg.Routing: every west-first-legal minimal port.
func (w *WestFirst) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if w.tbl == nil {
		w.tbl = buildPortTable(w.Mesh.NumRouters(), func(cur, dst int, buf []int) []int {
			return westFirstPorts(w.Mesh, cur, dst, buf)
		})
	}
	w.scratch = w.tbl.appendPorts(w.scratch[:0], router, p.RouteDst())
	return requests(buf, w.scratch, sim.AllVCs)
}

// Route implements sim.RoutingAlgorithm.
func (w *WestFirst) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return pickOne(w, r, inPort, p, buf)
}

// westFirstPorts appends the west-first-legal minimal output ports from
// cur toward dst to buf.
func westFirstPorts(m *topology.Mesh, cur, dst int, buf []int) []int {
	cx, cy := m.Coords(cur)
	dx, dy := m.Coords(dst)
	if dx < cx {
		return append(buf, topology.MeshPort(topology.West))
	}
	if dx > cx {
		buf = append(buf, topology.MeshPort(topology.East))
	}
	if dy > cy {
		buf = append(buf, topology.MeshPort(topology.North))
	}
	if dy < cy {
		buf = append(buf, topology.MeshPort(topology.South))
	}
	return buf
}

// MinAdaptive is topology-agnostic fully-adaptive minimal routing with the
// FAvORS selection function and no VC restriction. It is FAvORS-Min when
// run with one VC; it has a cyclic CDG and therefore requires SPIN (or
// another recovery scheme) for deadlock freedom.
type MinAdaptive struct {
	sim.BaseRouting
	Topo topology.Topology

	scratch []int
}

// Name implements sim.RoutingAlgorithm.
func (a *MinAdaptive) Name() string { return "min_adaptive" }

// Candidates implements cdg.Routing: every minimal port, on any VC.
func (a *MinAdaptive) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	a.scratch = a.Topo.MinimalPortsInto(a.scratch[:0], router, p.RouteDst())
	return requests(buf, a.scratch, sim.AllVCs)
}

// Route implements sim.RoutingAlgorithm.
func (a *MinAdaptive) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return pickOne(a, r, inPort, p, buf)
}

// EscapeVC is Duato-theory adaptive routing for meshes: VC 0 of each vnet
// is the escape channel, routed with dimension order (an acyclic escape
// sub-network); the remaining VCs route fully adaptively with no turn
// restriction. A blocked packet always has the escape path available, so
// the configuration is deadlock-free by Duato's theorem.
type EscapeVC struct {
	sim.BaseRouting
	Mesh *topology.Mesh
	// VCs is the total VCs per vnet (must be >= 2: one escape + regulars).
	VCs int

	xyTbl   []uint8
	scratch []int
}

// Name implements sim.RoutingAlgorithm.
func (e *EscapeVC) Name() string { return "escape_vc" }

// regularMask covers VCs 1..VCs-1; escapeMask covers VC 0.
func (e *EscapeVC) regularMask() uint32 {
	return (uint32(1)<<uint(e.VCs) - 1) &^ 1
}

// Candidates implements cdg.Routing: every minimal port on the regular VCs,
// then the escape request, the dimension-ordered port on VC 0 only.
func (e *EscapeVC) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if e.xyTbl == nil {
		e.xyTbl = buildXYTable(e.Mesh)
	}
	dst := p.RouteDst()
	e.scratch = e.Mesh.MinimalPortsInto(e.scratch[:0], router, dst)
	buf = requests(buf, e.scratch, e.regularMask())
	return append(buf, sim.PortRequest{Port: int(e.xyTbl[router*e.Mesh.NumRouters()+dst]), VCMask: 1})
}

// Route implements sim.RoutingAlgorithm: one adaptive request, chosen
// among the regular candidates, and the escape request.
func (e *EscapeVC) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	n := len(buf)
	buf = e.Candidates(r.ID, inPort, p, buf)
	escape := buf[len(buf)-1]
	return append(buf[:n], pickAdaptive(r, buf[n:len(buf)-1], p), escape)
}
