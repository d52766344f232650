// Package topology models interconnection-network topologies as directed
// graphs of routers, ports and links.
//
// Routers are numbered 0..NumRouters()-1. Each router exposes a set of
// ports; ports [0, LocalPorts(r)) attach terminals (network interfaces),
// the rest attach inter-router links. A Link is a directed channel with a
// latency in cycles; bidirectional physical channels are represented as a
// pair of Links. The Graph type supplies adjacency and all-pairs hop-count
// queries that topology-agnostic routing (and SPIN itself) rely on.
package topology

import "fmt"

// Link is a directed channel between an output port of router Src and an
// input port of router Dst. Latency is the traversal time in cycles and
// must be at least 1.
type Link struct {
	Src, Dst         int
	SrcPort, DstPort int
	Latency          int
}

// Topology describes a network: its routers, terminals, and links.
//
// Port numbering convention: at router r, ports [0, LocalPorts(r)) are
// terminal (injection/ejection) ports; link ports occupy the remainder of
// [0, Radix(r)).
type Topology interface {
	// Name identifies the topology (e.g. "mesh8x8").
	Name() string
	// NumRouters reports the number of routers.
	NumRouters() int
	// NumTerminals reports the number of attached terminals (NICs).
	NumTerminals() int
	// TerminalRouter reports the router terminal t attaches to.
	TerminalRouter(t int) int
	// TerminalPort reports the local port at TerminalRouter(t) where
	// terminal t attaches.
	TerminalPort(t int) int
	// LocalPorts reports how many terminal ports router r has.
	LocalPorts(r int) int
	// Radix reports the total number of ports at router r.
	Radix(r int) int
	// Links returns every directed link. The slice must not be mutated.
	Links() []Link
	// OutLink resolves the link leaving router r via port p, if any.
	OutLink(r, p int) (Link, bool)
	// Distance reports the minimal hop count between routers a and b,
	// or -1 if b is unreachable from a.
	Distance(a, b int) int
	// MinimalPorts returns the output ports at router r that lie on some
	// minimal path toward router dst. The slice must not be mutated.
	MinimalPorts(r, dst int) []int
	// MinimalPortsInto appends MinimalPorts(r, dst) to buf and returns it,
	// without allocating beyond buf's growth.
	MinimalPortsInto(buf []int, r, dst int) []int
	// Diameter reports the maximum finite router-to-router distance.
	Diameter() int
}

// Graph is a concrete Topology built from an explicit link list. Concrete
// topologies (Mesh, Dragonfly, ...) embed Graph and add coordinate helpers.
type Graph struct {
	name     string
	routers  int
	termOf   []int // terminal -> router
	termPort []int // terminal -> local port
	localCnt []int // router -> #terminal ports
	radix    []int // router -> total ports
	links    []Link
	outLink  [][]int // [router][port] -> index into links, or -1
	dist     [][]int16
	// Minimal out ports are stored as one flat pool indexed by offsets:
	// the ports for (r, dst) live in minPorts[minOff[r*routers+dst] :
	// minOff[r*routers+dst+1]]. A per-pair [][]int8 costs one allocation
	// per (router, dst) pair — ~16.7M slices at 4096 routers — while the
	// flat form is two allocations regardless of scale.
	minOff   []int32
	minPorts []int8
}

// NewGraph assembles a Graph. terminals[t] gives the router each terminal
// attaches to; terminal ports are assigned in order of appearance at each
// router. Link ports must be numbered >= the number of terminals at their
// router; NewGraph validates consistency and precomputes distances.
func NewGraph(name string, routers int, terminals []int, links []Link) (*Graph, error) {
	g := &Graph{
		name:     name,
		routers:  routers,
		termOf:   append([]int(nil), terminals...),
		localCnt: make([]int, routers),
		radix:    make([]int, routers),
		links:    append([]Link(nil), links...),
	}
	g.termPort = make([]int, len(terminals))
	for t, r := range terminals {
		if r < 0 || r >= routers {
			return nil, fmt.Errorf("topology %s: terminal %d attaches to invalid router %d", name, t, r)
		}
		g.termPort[t] = g.localCnt[r]
		g.localCnt[r]++
	}
	for r := 0; r < routers; r++ {
		g.radix[r] = g.localCnt[r]
	}
	for i, l := range g.links {
		if l.Src < 0 || l.Src >= routers || l.Dst < 0 || l.Dst >= routers {
			return nil, fmt.Errorf("topology %s: link %d connects invalid routers %d->%d", name, i, l.Src, l.Dst)
		}
		if l.Latency < 1 {
			return nil, fmt.Errorf("topology %s: link %d has latency %d < 1", name, i, l.Latency)
		}
		if l.SrcPort < g.localCnt[l.Src] || l.DstPort < g.localCnt[l.Dst] {
			return nil, fmt.Errorf("topology %s: link %d uses a terminal port", name, i)
		}
		if l.SrcPort+1 > g.radix[l.Src] {
			g.radix[l.Src] = l.SrcPort + 1
		}
		if l.DstPort+1 > g.radix[l.Dst] {
			g.radix[l.Dst] = l.DstPort + 1
		}
	}
	// One slab for every router's port table (radix is final here); the
	// same offsets index the duplicate in-port check.
	off := make([]int, routers+1)
	for r := 0; r < routers; r++ {
		off[r+1] = off[r] + g.radix[r]
	}
	flat := make([]int, off[routers])
	for i := range flat {
		flat[i] = -1
	}
	g.outLink = make([][]int, routers)
	for r := range g.outLink {
		g.outLink[r] = flat[off[r]:off[r+1]:off[r+1]]
	}
	inSeen := make([]bool, len(flat))
	for i, l := range g.links {
		if g.outLink[l.Src][l.SrcPort] != -1 {
			return nil, fmt.Errorf("topology %s: two links leave router %d port %d", name, l.Src, l.SrcPort)
		}
		g.outLink[l.Src][l.SrcPort] = i
		in := off[l.Dst] + l.DstPort
		if inSeen[in] {
			return nil, fmt.Errorf("topology %s: two links enter router %d port %d", name, l.Dst, l.DstPort)
		}
		inSeen[in] = true
	}
	g.computeDistances()
	g.computeMinimalPorts()
	return g, nil
}

// computeDistances runs one BFS per source over the port tables.
func (g *Graph) computeDistances() {
	n := g.routers
	flat := make([]int16, n*n)
	for i := range flat {
		flat[i] = -1
	}
	g.dist = make([][]int16, n)
	queue := make([]int, n)
	for s := 0; s < n; s++ {
		d := flat[s*n : (s+1)*n : (s+1)*n]
		d[s] = 0
		queue[0] = s
		for head, tail := 0, 1; head < tail; head++ {
			r := queue[head]
			for _, li := range g.outLink[r] {
				if li < 0 {
					continue
				}
				if nb := g.links[li].Dst; d[nb] == -1 {
					d[nb] = d[r] + 1
					queue[tail] = nb
					tail++
				}
			}
		}
		g.dist[s] = d
	}
}

// computeMinimalPorts fills the (r, dst) port pool. A router's port table
// is walked in port order, so every list comes out ascending by port.
func (g *Graph) computeMinimalPorts() {
	n := g.routers
	g.minOff = make([]int32, n*n+1)
	g.minPorts = make([]int8, 0, 2*n*n)
	for r := 0; r < n; r++ {
		for dst := 0; dst < n; dst++ {
			g.minOff[r*n+dst] = int32(len(g.minPorts))
			want := g.dist[r][dst] - 1 // negative: r == dst, or unreachable
			for p, li := range g.outLink[r] {
				if li >= 0 && want >= 0 && g.dist[g.links[li].Dst][dst] == want {
					g.minPorts = append(g.minPorts, int8(p))
				}
			}
		}
	}
	g.minOff[n*n] = int32(len(g.minPorts))
}

// minimalAt returns the pooled minimal-port slice for (r, dst).
func (g *Graph) minimalAt(r, dst int) []int8 {
	i := r*g.routers + dst
	return g.minPorts[g.minOff[i]:g.minOff[i+1]]
}

// Name implements Topology.
func (g *Graph) Name() string { return g.name }

// NumRouters implements Topology.
func (g *Graph) NumRouters() int { return g.routers }

// NumTerminals implements Topology.
func (g *Graph) NumTerminals() int { return len(g.termOf) }

// TerminalRouter implements Topology.
func (g *Graph) TerminalRouter(t int) int { return g.termOf[t] }

// TerminalPort implements Topology.
func (g *Graph) TerminalPort(t int) int { return g.termPort[t] }

// LocalPorts implements Topology.
func (g *Graph) LocalPorts(r int) int { return g.localCnt[r] }

// Radix implements Topology.
func (g *Graph) Radix(r int) int { return g.radix[r] }

// Links implements Topology.
func (g *Graph) Links() []Link { return g.links }

// OutLink implements Topology.
func (g *Graph) OutLink(r, p int) (Link, bool) {
	if r < 0 || r >= g.routers || p < 0 || p >= len(g.outLink[r]) {
		return Link{}, false
	}
	li := g.outLink[r][p]
	if li < 0 {
		return Link{}, false
	}
	return g.links[li], true
}

// Distance implements Topology.
func (g *Graph) Distance(a, b int) int { return int(g.dist[a][b]) }

// MinimalPorts implements Topology.
func (g *Graph) MinimalPorts(r, dst int) []int {
	ports := g.minimalAt(r, dst)
	out := make([]int, len(ports))
	for i, p := range ports {
		out[i] = int(p)
	}
	return out
}

// MinimalPortsInto implements Topology.
func (g *Graph) MinimalPortsInto(buf []int, r, dst int) []int {
	for _, p := range g.minimalAt(r, dst) {
		buf = append(buf, int(p))
	}
	return buf
}

// ensureRadix grows every router's declared radix to at least min, leaving
// the extra ports unwired. Regular topologies use it so that spare channels
// (e.g. an unused dragonfly global port) still count toward the radix.
func (g *Graph) ensureRadix(min int) {
	for r := range g.radix {
		for len(g.outLink[r]) < min {
			g.outLink[r] = append(g.outLink[r], -1)
		}
		if g.radix[r] < min {
			g.radix[r] = min
		}
	}
}

// Connected reports whether every router can reach every other router.
func (g *Graph) Connected() bool {
	for a := 0; a < g.routers; a++ {
		for b := 0; b < g.routers; b++ {
			if g.dist[a][b] < 0 {
				return false
			}
		}
	}
	return true
}

// Diameter implements Topology.
func (g *Graph) Diameter() int {
	max := 0
	for a := 0; a < g.routers; a++ {
		for b := 0; b < g.routers; b++ {
			if d := int(g.dist[a][b]); d > max {
				max = d
			}
		}
	}
	return max
}
