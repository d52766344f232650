// Package graph holds the repository's one strongly-connected-components
// routine (Tarjan's) and the liveness closure built on it. A graph is given
// in compressed sparse row (CSR) form: n nodes numbered 0..n-1, node v's
// successors adj[lo[v]:lo[v+1]], so len(lo) == n+1. Self-loops and
// parallel edges are allowed.
//
// Every dependency graph of the repository goes through it: the channel
// dependency graph's cycles (internal/cdg), the simulator's deadlock oracle
// over its wait-for graph (internal/sim) and the model checker's mirror of
// that oracle (internal/mc). It imports nothing from the repository, so
// each of those layers can call it.
package graph

import (
	"math"
	"slices"
)

// Scratch is the working memory of SCCs and Live. The zero value is ready
// to use; a caller that keeps one allocates nothing once it has grown to
// its largest graph. A Scratch serves one call at a time.
type Scratch struct {
	// index is a node's discovery order plus one (0: unvisited,
	// done: already in an emitted SCC); low its lowlink.
	index, low []int32
	stack      []int32 // visited nodes not yet in an emitted SCC
	frames     []frame // the depth-first walk: a node and its next edge
	members    []int32 // the SCCs in emission order
	bounds     []int32 // SCC k is members[bounds[k]:bounds[k+1]]
}

type frame struct{ node, edge int32 }

// done marks a node whose SCC has been emitted: larger than any lowlink,
// it never lowers one.
const done = math.MaxInt32

// SCCs returns the strongly connected components of the graph (lo, adj),
// sinks first: every edge leaving SCC k enters an SCC emitted before it. It
// is returned in CSR form too, SCC k being members[bounds[k]:bounds[k+1]].
// The walk starts at nodes 0, 1, ... in turn and follows each node's edges
// in adj order; an SCC lists its members in the order Tarjan's stack pops
// them, its root last. The nodes skip marks (it may be nil) are left out:
// neither visited nor emitted, and an edge into one is ignored. Both slices
// belong to s and are overwritten by its next call.
func (s *Scratch) SCCs(lo, adj []int32, skip []bool) (members, bounds []int32) {
	n := len(lo) - 1
	s.index, s.low = slices.Grow(s.index[:0], n)[:n], slices.Grow(s.low[:0], n)[:n]
	clear(s.index)
	for v, out := range skip {
		if out {
			s.index[v] = done
		}
	}
	s.members, s.bounds = s.members[:0], append(s.bounds[:0], 0)
	counter := int32(0)
	visit := func(v int32) {
		counter++
		s.index[v], s.low[v] = counter, counter
		s.stack = append(s.stack, v)
		s.frames = append(s.frames, frame{v, lo[v]})
	}
	for start := int32(0); int(start) < n; start++ {
		if s.index[start] != 0 {
			continue
		}
		visit(start)
		for len(s.frames) > 0 {
			f := &s.frames[len(s.frames)-1]
			v := f.node
			if f.edge < lo[v+1] {
				w := adj[f.edge]
				f.edge++
				if s.index[w] == 0 {
					visit(w)
				} else if s.index[w] < s.low[v] {
					s.low[v] = s.index[w]
				}
				continue
			}
			s.frames = s.frames[:len(s.frames)-1]
			if len(s.frames) > 0 {
				parent := s.frames[len(s.frames)-1].node
				s.low[parent] = min(s.low[parent], s.low[v])
			}
			if s.low[v] == s.index[v] {
				for w := int32(-1); w != v; {
					w = s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.index[w] = done
					s.members = append(s.members, w)
				}
				s.bounds = append(s.bounds, int32(len(s.members)))
			}
		}
	}
	return s.members, s.bounds
}

// Live extends live, indexed by node, to the closure of "some successor is
// live": on return a node is false exactly when no path leads from it to a
// node that was true on entry. Those are decided already, so it takes the
// SCCs of the other nodes alone, sinks first: every successor outside an
// SCC is decided before it, and the SCC is live when a member has an edge
// to a node that is.
func (s *Scratch) Live(lo, adj []int32, live []bool) {
	members, bounds := s.SCCs(lo, adj, live)
	for k := 1; k < len(bounds); k++ {
		scc, alive := members[bounds[k-1]:bounds[k]], false
		for _, v := range scc {
			for _, w := range adj[lo[v]:lo[v+1]] {
				alive = alive || live[w]
			}
		}
		for _, v := range scc {
			live[v] = alive
		}
	}
}
