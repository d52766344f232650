package cdg

import (
	"errors"
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// DepFor errors: the routing name has no static dependency model at all,
// or it has one that does not run on the given topology.
var (
	ErrNoStaticModel = errors.New("no static CDG model")
	ErrWrongTopology = errors.New("wrong topology")
)

// DepFor maps a routing name — the harness/spind routing specs plus
// spincheck's analysis-only names (escape_subnet, torus_dor, dfly_free)
// — to its static dependency function on topo. It is the one such table:
// cmd/spincheck and the harness forensics CDG cut both call it.
func DepFor(name string, topo topology.Topology, vcs int) (DependencyFunc, error) {
	mesh, _ := topo.(*topology.Mesh)
	dfly, _ := topo.(*topology.Dragonfly)
	var dep DependencyFunc
	needs := "a mesh"
	switch name {
	case "", "min_adaptive", "favors_min", "favors_nmin":
		return MinAdaptiveDep(topo), nil
	case "xy":
		if mesh != nil {
			dep = XYDep(mesh)
		}
	case "westfirst":
		if mesh != nil {
			dep = WestFirstDep(mesh)
		}
	case "escape_vc":
		if mesh != nil {
			dep = EscapeDep(mesh, vcs)
		}
	case "escape_subnet":
		if mesh != nil {
			dep = EscapeSubgraphDep(mesh)
		}
	case "torus_dor":
		needs = "a torus"
		if mesh != nil && mesh.Torus {
			dep = TorusDORDep(mesh)
		}
	case "dfly_min_ladder", "ugal_ladder":
		needs = "a dragonfly"
		if dfly != nil {
			dep = DflyLadderDep(dfly, vcs)
		}
	case "dfly_free", "dfly_min", "ugal_spin":
		needs = "a dragonfly"
		if dfly != nil {
			dep = DflyFreeDep(dfly)
		}
	default:
		return nil, fmt.Errorf("cdg: routing %q: %w", name, ErrNoStaticModel)
	}
	if dep == nil {
		return nil, fmt.Errorf("cdg: routing %s needs %s: %w", name, needs, ErrWrongTopology)
	}
	return dep, nil
}

// XYDep is the dependency function of dimension-ordered mesh routing.
func XYDep(m *topology.Mesh) DependencyFunc {
	return func(r, _, _, dst int) []Request {
		return []Request{{Port: routing.XYPort(m, r, dst), VCMask: sim.AllVCs}}
	}
}

// WestFirstDep is the dependency function of west-first turn-model
// routing: every legal adaptive choice becomes an edge.
func WestFirstDep(m *topology.Mesh) DependencyFunc {
	return func(r, _, _, dst int) []Request {
		var reqs []Request
		for _, p := range routing.WestFirstPorts(m, r, dst, nil) {
			reqs = append(reqs, Request{Port: p, VCMask: sim.AllVCs})
		}
		return reqs
	}
}

// MinAdaptiveDep is the dependency function of fully-adaptive minimal
// routing with unrestricted VC use — the configuration SPIN makes legal.
func MinAdaptiveDep(topo topology.Topology) DependencyFunc {
	return func(r, _, _, dst int) []Request {
		var reqs []Request
		for _, p := range topo.MinimalPorts(r, dst) {
			reqs = append(reqs, Request{Port: p, VCMask: sim.AllVCs})
		}
		return reqs
	}
}

// EscapeDep is the Duato escape-VC configuration: adaptive requests over
// the regular VCs (classes 1..vcs-1) plus a dimension-ordered escape
// request on VC 0, from any held VC.
func EscapeDep(m *topology.Mesh, vcs int) DependencyFunc {
	regular := (uint32(1)<<uint(vcs) - 1) &^ 1
	return func(r, _, _, dst int) []Request {
		var reqs []Request
		for _, p := range m.MinimalPorts(r, dst) {
			reqs = append(reqs, Request{Port: p, VCMask: regular})
		}
		reqs = append(reqs, Request{Port: routing.XYPort(m, r, dst), VCMask: 1})
		return reqs
	}
}

// EscapeSubgraphDep restricts EscapeDep to the escape network alone
// (VC 0, dimension-ordered): Duato's condition requires exactly this
// sub-CDG to be acyclic.
func EscapeSubgraphDep(m *topology.Mesh) DependencyFunc {
	return func(r, _, held, dst int) []Request {
		if held > 0 {
			return nil
		}
		return []Request{{Port: routing.XYPort(m, r, dst), VCMask: 1}}
	}
}

// TorusDORDep is dimension-ordered routing on a torus, taking the
// shorter wraparound direction per dimension. With one VC its CDG is
// cyclic around each ring — the classic motivation for bubble flow
// control and dateline VCs.
func TorusDORDep(m *topology.Mesh) DependencyFunc {
	return func(r, _, _, dst int) []Request {
		cx, cy := m.Coords(r)
		dx, dy := m.Coords(dst)
		var port int
		switch {
		case cx != dx:
			east := ((dx - cx) + m.X) % m.X
			if east <= m.X-east {
				port = topology.MeshPort(topology.East)
			} else {
				port = topology.MeshPort(topology.West)
			}
		case cy != dy:
			north := ((dy - cy) + m.Y) % m.Y
			if north <= m.Y-north {
				port = topology.MeshPort(topology.North)
			} else {
				port = topology.MeshPort(topology.South)
			}
		default:
			return nil
		}
		return []Request{{Port: port, VCMask: sim.AllVCs}}
	}
}

// DflyLadderDep is the dragonfly Dally VC ladder: a packet in VC class k
// has crossed k global channels; it moves to VC k on local hops and VC
// k+1 across global channels, which orders channel acquisition and makes
// the extended CDG acyclic.
func DflyLadderDep(d *topology.Dragonfly, vcs int) DependencyFunc {
	return func(r, inPort, held, dst int) []Request {
		// The VC class climbs when the held channel is a global one (the
		// packet's global-hop count incremented on traversal).
		cls := held
		if cls < 0 {
			cls = 0
		}
		if inPort >= 0 && d.IsGlobalPort(inPort) {
			cls++
		}
		if cls >= vcs {
			return nil
		}
		mask := uint32(1) << uint(cls)
		var reqs []Request
		gd := d.Group(dst)
		if d.Group(r) == gd {
			if r != dst {
				reqs = append(reqs, Request{Port: d.LocalPortTo(r, dst), VCMask: mask})
			}
			return reqs
		}
		if globals := d.GlobalPortsTo(r, gd); len(globals) > 0 {
			for _, p := range globals {
				reqs = append(reqs, Request{Port: p, VCMask: mask})
			}
			return reqs
		}
		// Pre-global local hop: only taken straight out of injection (a
		// packet already holding a channel at a router without the global
		// link cannot occur under canonical minimal routing).
		if inPort < 0 {
			for _, p := range d.CanonicalMinimalPorts(r, dst) {
				reqs = append(reqs, Request{Port: p, VCMask: mask})
			}
		}
		return reqs
	}
}

// DflyFreeDep is dragonfly minimal routing with unrestricted VC use (the
// UGAL+SPIN configuration): cyclic, hence needs recovery.
func DflyFreeDep(d *topology.Dragonfly) DependencyFunc {
	return MinAdaptiveDep(d)
}
