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

// Route implements sim.RoutingAlgorithm.
func (x *XY) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if x.tbl == nil {
		x.tbl = buildXYTable(x.Mesh)
	}
	port := int(x.tbl[r.ID*x.Mesh.NumRouters()+p.RouteDst()])
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
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
// Exported for static CDG analysis (internal/cdg).
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

// Route implements sim.RoutingAlgorithm.
func (t *TorusDOR) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return append(buf, sim.PortRequest{Port: TorusDORPort(t.Mesh, r.ID, p.RouteDst()), VCMask: sim.AllVCs})
}

// TorusDORPort is TorusDOR's output port from cur toward dst (cur != dst),
// east or north when both ways round are equally short. Exported for
// static CDG analysis.
func TorusDORPort(m *topology.Mesh, cur, dst int) int {
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

// Route implements sim.RoutingAlgorithm.
func (w *WestFirst) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if w.tbl == nil {
		w.tbl = buildPortTable(w.Mesh.NumRouters(), func(cur, dst int) []int {
			return WestFirstPorts(w.Mesh, cur, dst, nil)
		})
	}
	w.scratch = w.tbl.appendPorts(w.scratch[:0], r.ID, p.RouteDst())
	ports := w.scratch
	mustPorts(w.Name(), ports, r.ID, p.RouteDst())
	port := pickAdaptive(r, ports, p.VNet, sim.AllVCs, p.Length)
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
}

// WestFirstPorts appends the west-first-legal minimal output ports from
// cur toward dst to buf. Exported for static CDG analysis.
func WestFirstPorts(m *topology.Mesh, cur, dst int, buf []int) []int {
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
	// RoutingName lets configurations label the algorithm (e.g.
	// "favors_min"); empty means "min_adaptive".
	RoutingName string

	into    func([]int, int, int) []int
	scratch []int
}

// Name implements sim.RoutingAlgorithm.
func (a *MinAdaptive) Name() string {
	if a.RoutingName != "" {
		return a.RoutingName
	}
	return "min_adaptive"
}

// Route implements sim.RoutingAlgorithm.
func (a *MinAdaptive) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if a.into == nil {
		a.into = minimalSource(a.Topo)
	}
	a.scratch = a.into(a.scratch[:0], r.ID, p.RouteDst())
	ports := a.scratch
	mustPorts(a.Name(), ports, r.ID, p.RouteDst())
	port := pickAdaptive(r, ports, p.VNet, sim.AllVCs, p.Length)
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
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

// Route implements sim.RoutingAlgorithm.
func (e *EscapeVC) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if e.xyTbl == nil {
		e.xyTbl = buildXYTable(e.Mesh)
	}
	dst := p.RouteDst()
	e.scratch = e.Mesh.MinimalPortsInto(e.scratch[:0], r.ID, dst)
	ports := e.scratch
	mustPorts(e.Name(), ports, r.ID, dst)
	adaptive := pickAdaptive(r, ports, p.VNet, e.regularMask(), p.Length)
	buf = append(buf, sim.PortRequest{Port: adaptive, VCMask: e.regularMask()})
	// Escape request: dimension-ordered port, escape VC only.
	escape := int(e.xyTbl[r.ID*e.Mesh.NumRouters()+dst])
	buf = append(buf, sim.PortRequest{Port: escape, VCMask: 1})
	return buf
}
