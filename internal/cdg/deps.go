package cdg

import (
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

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

// TorusDORDep is the dependency function of torus_dor
// (routing.TorusDOR): dimension order, the shorter way round each ring.
// With one VC its CDG is cyclic around each ring — the classic motivation
// for bubble flow control and dateline VCs.
func TorusDORDep(m *topology.Mesh) DependencyFunc {
	return func(r, _, _, dst int) []Request {
		return []Request{{Port: routing.TorusDORPort(m, r, dst), VCMask: sim.AllVCs}}
	}
}

// DflyLadderDep is the dragonfly Dally VC ladder: a packet that has
// crossed k global channels uses VC k (routing.LadderMask, which clamps at
// the top rung as the router does), so with one VC per global hop of the
// longest path the extended CDG is acyclic, and with fewer it is not.
// Without valiant it models canonical minimal routing (dfly_min_ladder);
// with it, UGAL (ugal_ladder), whose Valiant detour's first global hop may
// go to any group and which, in that intermediate group, takes a
// pre-global local hop on arriving over a global port: two global hops,
// three rungs.
func DflyLadderDep(d *topology.Dragonfly, vcs int, valiant bool) DependencyFunc {
	return func(r, inPort, held, dst int) []Request {
		// The held VC class is the global hops crossed before the held
		// channel; arriving over a global one adds its own.
		hops := max(held, 0)
		overGlobal := inPort >= 0 && d.IsGlobalPort(inPort)
		if overGlobal {
			hops++
		}
		mask := routing.LadderMask(hops, vcs)
		var reqs []Request
		add := func(ports ...int) {
			for _, p := range ports {
				reqs = append(reqs, Request{Port: p, VCMask: mask})
			}
		}
		gd := d.Group(dst)
		globals := d.GlobalPortsTo(r, gd)
		switch {
		case valiant && hops == 0:
			// The Valiant leg toward an intermediate group, which a packet
			// may take even when its destination shares its group: any
			// global port, or straight out of injection the local hop to
			// the router holding it. Minimal routes are among these.
			for p := d.P; p < d.Radix(r); p++ {
				if _, ok := d.OutLink(r, p); ok && (inPort < 0 || d.IsGlobalPort(p)) {
					add(p)
				}
			}
		case d.Group(r) == gd:
			add(d.LocalPortTo(r, dst))
		case len(globals) > 0:
			add(globals...)
		case inPort < 0 || valiant && overGlobal:
			// Pre-global local hop: straight out of injection, or after
			// the Valiant hop into the intermediate group (a minimal
			// packet holding a channel is never at a router without the
			// global link it needs).
			add(d.CanonicalMinimalPorts(r, dst)...)
		}
		return reqs
	}
}

// DflyFreeDep is dragonfly minimal routing with unrestricted VC use (the
// UGAL+SPIN configuration): cyclic, hence needs recovery.
func DflyFreeDep(d *topology.Dragonfly) DependencyFunc {
	return MinAdaptiveDep(d)
}
