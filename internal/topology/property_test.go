package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Property-based structural tests: every generated topology — whatever
// its parameters — must have symmetric links with mirrored port wiring
// and all-pairs reachability under the default (minimal-port) routing
// table. These are the assumptions the simulator's credit flow, the SPIN
// probe walk, and the CDG analysis all build on.

// generatedTopologies enumerates a spread of instances per family.
func generatedTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	add := func(name string, topo Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = topo
	}
	for _, d := range []struct{ x, y int }{{2, 2}, {3, 3}, {4, 4}, {5, 3}, {8, 8}, {2, 7}} {
		m, err := NewMesh(d.x, d.y, 1)
		add(fmt.Sprintf("mesh:%dx%d", d.x, d.y), m, err)
		if d.x > 2 || d.y > 2 { // wrap channels only exist for dims > 2
			tr, err := NewTorus(d.x, d.y, 1)
			add(fmt.Sprintf("torus:%dx%d", d.x, d.y), tr, err)
		}
	}
	for _, p := range []struct{ p, a, h, g int }{{1, 2, 1, 3}, {2, 4, 2, 9}} {
		df, err := NewDragonfly(p.p, p.a, p.h, p.g, 1, 3)
		add(fmt.Sprintf("dragonfly:%d,%d,%d,%d", p.p, p.a, p.h, p.g), df, err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		j, err := NewJellyfish(12, 2, 3, 1, rand.New(rand.NewSource(seed)))
		add(fmt.Sprintf("jellyfish:12,2,3/seed%d", seed), j, err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		im, err := NewIrregularMesh(4, 4, 1, 3, rand.New(rand.NewSource(seed)))
		add(fmt.Sprintf("irregular:4x4:3/seed%d", seed), im, err)
	}
	ft, err := NewFatTree(4, 2, 2, 1)
	add("fattree:4,2,2", ft, err)
	return out
}

// TestLinksAreSymmetricPairs: for every directed link A.p -> B.q there
// is the mirrored reverse link B.q -> A.p with the same latency — the
// port a router receives on is the port it sends back on.
func TestLinksAreSymmetricPairs(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		t.Run(name, func(t *testing.T) {
			type end struct{ r, p int }
			fwd := map[[2]end]int{}
			for _, l := range topo.Links() {
				fwd[[2]end{{l.Src, l.SrcPort}, {l.Dst, l.DstPort}}] = l.Latency
			}
			for _, l := range topo.Links() {
				lat, ok := fwd[[2]end{{l.Dst, l.DstPort}, {l.Src, l.SrcPort}}]
				if !ok {
					t.Fatalf("link r%d.p%d -> r%d.p%d has no mirrored reverse", l.Src, l.SrcPort, l.Dst, l.DstPort)
				}
				if lat != l.Latency {
					t.Fatalf("link r%d.p%d <-> r%d.p%d latency asymmetric: %d vs %d", l.Src, l.SrcPort, l.Dst, l.DstPort, l.Latency, lat)
				}
			}
		})
	}
}

// TestPortWiringIsConsistent: OutLink is injective per (router, port),
// agrees with Links(), and never collides with terminal ports.
func TestPortWiringIsConsistent(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		t.Run(name, func(t *testing.T) {
			seen := map[[2]int]Link{}
			for _, l := range topo.Links() {
				key := [2]int{l.Src, l.SrcPort}
				if prev, dup := seen[key]; dup {
					t.Fatalf("r%d port %d drives two links: %+v and %+v", l.Src, l.SrcPort, prev, l)
				}
				seen[key] = l
				got, ok := topo.OutLink(l.Src, l.SrcPort)
				if !ok || got != l {
					t.Fatalf("OutLink(r%d, p%d) = %+v, %v; want %+v", l.Src, l.SrcPort, got, ok, l)
				}
				if l.SrcPort < topo.LocalPorts(l.Src) {
					t.Fatalf("link r%d.p%d claims a terminal port (%d local)", l.Src, l.SrcPort, topo.LocalPorts(l.Src))
				}
				if l.SrcPort >= topo.Radix(l.Src) || l.DstPort >= topo.Radix(l.Dst) {
					t.Fatalf("link %+v outside radix (%d, %d)", l, topo.Radix(l.Src), topo.Radix(l.Dst))
				}
			}
			// Terminals attach to in-range routers on terminal ports.
			for term := 0; term < topo.NumTerminals(); term++ {
				r := topo.TerminalRouter(term)
				if r < 0 || r >= topo.NumRouters() {
					t.Fatalf("terminal %d on router %d of %d", term, r, topo.NumRouters())
				}
				if p := topo.TerminalPort(term); p >= topo.LocalPorts(r) {
					t.Fatalf("terminal %d uses port %d but router %d has %d local ports", term, p, r, topo.LocalPorts(r))
				}
			}
		})
	}
}

// TestAllPairsReachableViaMinimalPorts: from every router, every other
// router is reachable by greedily following the default routing table
// (MinimalPorts), with the distance dropping by exactly one per hop —
// the routing table is total and loop-free.
func TestAllPairsReachableViaMinimalPorts(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		t.Run(name, func(t *testing.T) {
			n := topo.NumRouters()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					cur, dist := src, topo.Distance(src, dst)
					if dist <= 0 {
						t.Fatalf("Distance(%d,%d) = %d for distinct routers", src, dst, dist)
					}
					for steps := 0; cur != dst; steps++ {
						if steps > dist {
							t.Fatalf("minimal walk %d->%d exceeded distance %d", src, dst, dist)
						}
						ports := topo.MinimalPorts(cur, dst)
						if len(ports) == 0 {
							t.Fatalf("MinimalPorts(%d,%d) empty en route %d->%d", cur, dst, src, dst)
						}
						// Every advertised port must reduce the distance.
						for _, p := range ports {
							l, ok := topo.OutLink(cur, p)
							if !ok {
								t.Fatalf("MinimalPorts(%d,%d) lists unwired port %d", cur, dst, p)
							}
							if topo.Distance(l.Dst, dst) != topo.Distance(cur, dst)-1 {
								t.Fatalf("port %d at r%d toward r%d does not reduce distance", p, cur, dst)
							}
						}
						l, _ := topo.OutLink(cur, ports[0])
						cur = l.Dst
					}
				}
			}
		})
	}
}

// TestGeneratedTopologiesConnected: the underlying graphs are connected
// (Distance is finite everywhere, which the walks above rely on).
func TestGeneratedTopologiesConnected(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		g, ok := topo.(interface{ Connected() bool })
		if !ok {
			continue
		}
		if !g.Connected() {
			t.Errorf("%s is not connected", name)
		}
	}
}

// TestGraphTablesUnchanged: Distance and MinimalPorts for every pair
// equal a reference computed the way NewGraph used to — a BFS over the
// link list per source and, per (router, dst) pair, the ports collected
// in link-declaration order and then sorted. Routing decisions and RNG
// draws depend on the order of MinimalPorts, so it is compared exactly.
func TestGraphTablesUnchanged(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		t.Run(name, func(t *testing.T) {
			n := topo.NumRouters()
			out := make([][]Link, n)
			for _, l := range topo.Links() {
				out[l.Src] = append(out[l.Src], l)
			}
			dist := make([][]int, n)
			for s := range dist {
				d := make([]int, n)
				for i := range d {
					d[i] = -1
				}
				d[s] = 0
				for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
					for _, l := range out[queue[0]] {
						if d[l.Dst] == -1 {
							d[l.Dst] = d[queue[0]] + 1
							queue = append(queue, l.Dst)
						}
					}
				}
				dist[s] = d
			}
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					if got := topo.Distance(r, dst); got != dist[r][dst] {
						t.Fatalf("Distance(%d, %d) = %d, reference %d", r, dst, got, dist[r][dst])
					}
					want := []int{}
					if r != dst && dist[r][dst] >= 0 {
						for _, l := range out[r] {
							if dist[l.Dst][dst] >= 0 && dist[l.Dst][dst] == dist[r][dst]-1 {
								want = append(want, l.SrcPort)
							}
						}
						sort.Ints(want)
					}
					if got := topo.MinimalPorts(r, dst); !reflect.DeepEqual(got, want) {
						t.Fatalf("MinimalPorts(%d, %d) = %v, reference %v", r, dst, got, want)
					}
				}
			}
		})
	}
}

// TestGraphBuildAllocBudget: building a graph costs a fixed number of
// slabs plus the link list's growth, not an object per router or per
// (router, dst) pair (8,411 objects for this mesh with a sort per pair).
func TestGraphBuildAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewMesh(8, 8, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("NewMesh(8,8,1) makes %.0f allocations, budget 500", allocs)
	}
	t.Logf("NewMesh(8,8,1): %.0f allocations", allocs)
}
