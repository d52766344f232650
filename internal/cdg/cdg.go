// Package cdg builds and analyses channel dependency graphs (Dally &
// Seitz). A CDG node is a virtual channel class (link × VC); an edge u→v
// exists when some packet can hold u while requesting v. Dally's theorem:
// a routing function is deadlock-free on a network if its CDG is acyclic.
// Duato's extension: it suffices that an escape sub-network's CDG is
// acyclic and always reachable.
//
// The graph is built from the routing the simulator runs (Routing: its
// Candidates method), so the verdicts the root package's routing table
// reaches — XY and West-first acyclic, fully-adaptive minimal routing
// cyclic (hence needs SPIN), the escape-VC configuration's escape
// sub-network acyclic, the dragonfly VC ladder acyclic while free VC use is
// not — are about that code, not a model of it.
package cdg

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Channel identifies a CDG node: a directed link (by index into
// Topology.Links()) and a VC class on it.
type Channel struct {
	Link int
	VC   int
}

// Routing is a routing Build can walk. Candidates appends to buf every
// request Route may return for packet p at router, arriving on inPort:
// each port it may take, with every VC it may take there. Like Route, it
// may end p's Valiant phase. A routing whose AtSource may send a packet via
// an intermediate router (sim.Packet.Intermediate) also has a Valiant
// method that says so.
type Routing interface {
	sim.RoutingAlgorithm
	Candidates(router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest
}

// Graph is a channel dependency graph.
type Graph struct {
	vcs int
	// lo, adj: the edges in CSR form (package graph), by node link*vcs + VC.
	lo, adj []int32
	// Offered is the VC mask every packet state the walk reached requests
	// some VC of: the intersection, over states, of the union of their
	// requests' masks. Duato's condition needs it to meet the escape VCs.
	Offered uint32
}

// Build constructs the CDG of rt on topo with vcs VC classes per link, each
// request restricted to the VCs in mask: sim.AllVCs gives the routing's own
// graph, its escape VCs Duato's escape sub-network. It walks the states
// packets reach — a held channel and the packet's route state (destination,
// intermediate, phase, global hops), advanced by sim.Packet.Arrive as the
// engine advances it — from injection at every router with a terminal, so
// a dependency no route produces (an eastbound XY channel "requesting" a
// westward turn) is never added.
//
// A Valiant packet's first leg is walked once per intermediate rather than
// per (intermediate, destination) pair, and its second once per
// destination, from every state a first leg ended in. That over-approximates
// in three places, each adding edges only, which keeps an acyclic verdict
// sound: a first leg starts at every router, not only where AtSource would
// pick that intermediate; it is not ejected when it passes its destination
// (the engine ejects it there); and a second leg heads for every
// destination, not only those its intermediate was drawn for. A second leg
// is walked as a minimal packet with the global hops it has: the routings
// read Intermediate only through RouteDst and the phase flip.
func Build(topo topology.Topology, vcs int, rt Routing, mask uint32) *Graph {
	links := topo.Links()
	nodes := len(links) * vcs
	w := &walker{topo: topo, rt: rt, vcs: vcs, mask: mask, links: links,
		global: make([]bool, len(links)), linkAt: make([][]int, topo.NumRouters()),
		g:   &Graph{vcs: vcs, lo: make([]int32, 1, nodes+1), Offered: sim.AllVCs},
		out: make([][]int32, nodes), seen: make([]uint64, nodes), flipped: make([]uint64, nodes)}
	for r := range w.linkAt {
		w.linkAt[r] = make([]int, topo.Radix(r))
		for p := range w.linkAt[r] {
			w.linkAt[r][p] = -1
		}
	}
	for li, l := range links {
		w.global[li] = sim.GlobalLink(topo, l)
		w.linkAt[l.Src][l.SrcPort] = li
	}
	if v, ok := rt.(interface{ Valiant() bool }); ok && v.Valiant() {
		for m := range w.linkAt {
			w.inject(sim.Packet{DstRouter: m, Intermediate: m})
			w.walk()
		}
	}
	for d := range w.linkAt {
		w.inject(sim.Packet{DstRouter: d, Intermediate: -1})
		for node, hops := range w.flipped {
			for h := 0; hops>>h != 0; h++ {
				if hops>>h&1 == 1 {
					w.push(node, h, false)
				}
			}
		}
		w.walk()
	}
	for _, a := range w.out {
		slices.Sort(a)
		w.g.adj = append(w.g.adj, a...)
		w.g.lo = append(w.g.lo, int32(len(w.g.adj)))
	}
	return w.g
}

// walker is Build's state. One walk follows the packets of one route
// target: pkt, with GlobalHops 0. A packet state is a held node and the
// packet's global hops; the rest is the walk's.
type walker struct {
	topo   topology.Topology
	rt     Routing
	vcs    int
	mask   uint32
	links  []topology.Link
	global []bool  // by link: a dragonfly global channel
	linkAt [][]int // [router][port]: the link leaving there, or -1
	g      *Graph
	out    [][]int32 // by node: its edges so far
	pkt    sim.Packet
	// seen and flipped hold, by node, bit h when a packet with h global
	// hops held it: seen in this walk, flipped past its Valiant phase in
	// any walk.
	seen, flipped []uint64
	stack         [][2]int // packet states: node, global hops
	reqs          []sim.PortRequest
}

// inject starts a walk of packets like p, injected at every router but its
// route target.
func (w *walker) inject(p sim.Packet) {
	w.pkt = p
	clear(w.seen)
	for s := range w.linkAt {
		for in := 0; in < w.topo.LocalPorts(s) && s != p.RouteDst(); in++ {
			w.step(-1, s, in, 0)
		}
	}
}

// walk steps every packet state reachable from the stacked ones.
func (w *walker) walk() {
	for len(w.stack) > 0 {
		s := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if l := w.links[s[0]/w.vcs]; l.Dst != w.pkt.DstRouter { // else ejection releases the channel
			w.step(s[0], l.Dst, l.DstPort, s[1])
		}
	}
}

// step adds what a packet with hops global hops requests at router r,
// arriving on inPort and holding node from (-1: at injection): an edge
// from it to every VC of every request, each a packet state to walk.
func (w *walker) step(from, r, inPort, hops int) {
	p := w.pkt
	p.GlobalHops = hops
	w.reqs = w.rt.Candidates(r, inPort, &p, w.reqs[:0])
	if p.Phase != w.pkt.Phase {
		// The routing ended the Valiant phase here, so what it requests
		// depends on the destination: the destinations' walks take the
		// packet on from the channel it holds (at injection they cover it
		// already).
		if from >= 0 {
			w.flipped[from] |= 1 << hops
		}
		return
	}
	var offered uint32
	for _, req := range w.reqs {
		mask := req.VCMask & w.mask
		offered |= mask
		li := w.linkAt[r][req.Port]
		if li < 0 {
			continue
		}
		next := p
		next.Arrive(w.links[li].Dst, w.global[li])
		for v := 0; v < w.vcs; v++ {
			if mask&(1<<v) == 0 {
				continue
			}
			to := li*w.vcs + v
			if from >= 0 && !slices.Contains(w.out[from], int32(to)) {
				w.out[from] = append(w.out[from], int32(to))
			}
			w.push(to, next.GlobalHops, next.Phase != w.pkt.Phase)
		}
	}
	w.g.Offered &= offered
}

// push records a packet state: a packet with hops global hops holding node,
// past its Valiant phase (it reached its intermediate) when flipped.
func (w *walker) push(node, hops int, flipped bool) {
	if hops >= 64 {
		panic(fmt.Sprintf("cdg: %s routes a packet over 64 global channels", w.rt.Name()))
	}
	bit := uint64(1) << hops
	switch {
	case flipped:
		w.flipped[node] |= bit
	case w.seen[node]&bit == 0:
		w.seen[node] |= bit
		w.stack = append(w.stack, [2]int{node, hops})
	}
}

// NumChannels reports the CDG node count.
func (g *Graph) NumChannels() int { return len(g.lo) - 1 }

// channel names node n.
func (g *Graph) channel(n int32) Channel { return Channel{Link: int(n) / g.vcs, VC: int(n) % g.vcs} }

// NumEdges reports the CDG edge count.
func (g *Graph) NumEdges() int { return len(g.adj) }

// Cycles returns the non-trivial strongly connected components of the
// CDG (each contains at least one dependency cycle), as channel lists.
// An empty result proves the routing deadlock-free by Dally's theorem.
func (g *Graph) Cycles() [][]Channel {
	var s graph.Scratch
	members, bounds := s.SCCs(g.lo, g.adj, nil)
	var out [][]Channel
	for k := 1; k < len(bounds); k++ {
		scc := members[bounds[k-1]:bounds[k]]
		if n := scc[0]; len(scc) == 1 && !slices.Contains(g.adj[g.lo[n]:g.lo[n+1]], n) {
			continue // a single node is a cycle only through a self-loop
		}
		chs := make([]Channel, len(scc))
		for i, n := range scc {
			chs[i] = g.channel(n)
		}
		out = append(out, chs)
	}
	return out
}

// Acyclic reports whether the CDG has no dependency cycles.
func (g *Graph) Acyclic() bool { return len(g.Cycles()) == 0 }

// Describe summarises the analysis for reports.
func (g *Graph) Describe() string {
	cycles := g.Cycles()
	if len(cycles) == 0 {
		return fmt.Sprintf("CDG: %d channels, %d edges, acyclic (Dally-deadlock-free)", g.NumChannels(), g.NumEdges())
	}
	largest := 0
	for _, c := range cycles {
		if len(c) > largest {
			largest = len(c)
		}
	}
	return fmt.Sprintf("CDG: %d channels, %d edges, %d cyclic component(s), largest %d channels",
		g.NumChannels(), g.NumEdges(), len(cycles), largest)
}
