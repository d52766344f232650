package topology

import "fmt"

// Dragonfly is the canonical dragonfly of Kim et al.: G groups of A
// routers; each router hosts P terminals and H global links; routers
// within a group are fully connected. Global channels are wired with the
// standard consecutive arrangement, giving at least one global channel
// between every pair of groups when A*H >= G-1.
//
// Port layout at every router:
//
//	[0, P)            terminal ports
//	[P, P+A-1)        intra-group ports (to each other router in the group)
//	[P+A-1, P+A-1+H)  global ports
type Dragonfly struct {
	*Graph
	P, A, H, G          int
	IntraLat, GlobalLat int
	globalPortBase      int
}

// NewDragonfly builds a dragonfly. The paper's 1024-node system is
// NewDragonfly(4, 8, 4, 32, 1, 3): group size 8, 256 routers, 1-cycle
// intra-group and 3-cycle inter-group links.
func NewDragonfly(p, a, h, g, intraLat, globalLat int) (*Dragonfly, error) {
	if p < 1 || a < 2 || h < 1 || g < 2 {
		return nil, fmt.Errorf("topology: invalid dragonfly p=%d a=%d h=%d g=%d", p, a, h, g)
	}
	if a*h < g-1 {
		return nil, fmt.Errorf("topology: dragonfly needs a*h >= g-1 for full group connectivity (a*h=%d, g-1=%d)", a*h, g-1)
	}
	routers := g * a
	terms := make([]int, routers*p)
	for t := range terms {
		terms[t] = t / p
	}
	gpBase := p + a - 1
	var links []Link
	rid := func(grp, j int) int { return grp*a + j }
	// Intra-group full crossbar.
	localPort := func(from, to int) int {
		if to < from {
			return p + to
		}
		return p + to - 1
	}
	for grp := 0; grp < g; grp++ {
		for j := 0; j < a; j++ {
			for k := j + 1; k < a; k++ {
				links = append(links,
					Link{Src: rid(grp, j), SrcPort: localPort(j, k), Dst: rid(grp, k), DstPort: localPort(k, j), Latency: intraLat},
					Link{Src: rid(grp, k), SrcPort: localPort(k, j), Dst: rid(grp, j), DstPort: localPort(j, k), Latency: intraLat})
			}
		}
	}
	// Global channels: for groups i < d, group i's channel d-1 pairs with
	// group d's channel i. Channel c belongs to router c/h, global slot c%h.
	for i := 0; i < g; i++ {
		for d := i + 1; d < g; d++ {
			ci, cd := d-1, i
			if ci >= a*h || cd >= a*h {
				continue
			}
			srcR, srcP := rid(i, ci/h), gpBase+ci%h
			dstR, dstP := rid(d, cd/h), gpBase+cd%h
			links = append(links,
				Link{Src: srcR, SrcPort: srcP, Dst: dstR, DstPort: dstP, Latency: globalLat},
				Link{Src: dstR, SrcPort: dstP, Dst: srcR, DstPort: srcP, Latency: globalLat})
		}
	}
	base, err := NewGraph(fmt.Sprintf("dragonfly_p%da%dh%dg%d", p, a, h, g), routers, terms, links)
	if err != nil {
		return nil, err
	}
	base.ensureRadix(gpBase + h)
	return &Dragonfly{
		Graph: base, P: p, A: a, H: h, G: g,
		IntraLat: intraLat, GlobalLat: globalLat,
		globalPortBase: gpBase,
	}, nil
}

// Group reports the group a router belongs to.
func (d *Dragonfly) Group(r int) int { return r / d.A }

// LocalPortTo reports the intra-group port from router r to router r2 of
// the same group (r != r2).
func (d *Dragonfly) LocalPortTo(r, r2 int) int {
	j, k := r%d.A, r2%d.A
	if k < j {
		return d.P + k
	}
	return d.P + k - 1
}

// GlobalPortsTo returns r's global ports whose links land in group gd.
func (d *Dragonfly) GlobalPortsTo(r, gd int) []int {
	var out []int
	for p := d.globalPortBase; p < d.globalPortBase+d.H; p++ {
		l, ok := d.OutLink(r, p)
		if ok && d.Group(l.Dst) == gd {
			out = append(out, p)
		}
	}
	return out
}

// CanonicalMinimalPorts returns the output ports of the canonical
// dragonfly minimal route (local, global, local): inside the destination
// group, the direct local port; otherwise the router's own global channel
// to the destination group if it has one, else the local hops toward
// group members that do. Unlike the BFS-based MinimalPorts, canonical
// paths never take two global hops, which is what the Dally VC ladder is
// designed around.
func (d *Dragonfly) CanonicalMinimalPorts(r, dst int) []int {
	if r == dst {
		return nil
	}
	g, gd := d.Group(r), d.Group(dst)
	if g == gd {
		return []int{d.LocalPortTo(r, dst)}
	}
	if direct := d.GlobalPortsTo(r, gd); len(direct) > 0 {
		return direct
	}
	var out []int
	for j := 0; j < d.A; j++ {
		r2 := g*d.A + j
		if r2 == r {
			continue
		}
		if len(d.GlobalPortsTo(r2, gd)) > 0 {
			out = append(out, d.LocalPortTo(r, r2))
		}
	}
	return out
}

// GlobalPortBase reports the first global port index at every router.
func (d *Dragonfly) GlobalPortBase() int { return d.globalPortBase }

// IsGlobalPort reports whether port p of a router drives a global link.
func (d *Dragonfly) IsGlobalPort(p int) bool { return p >= d.globalPortBase }
