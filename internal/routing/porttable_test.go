package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// tableInstances mirrors internal/topology's property-test spread: one
// entry per generated instance of every family. The equivalence tests
// below prove the precomputed routing tables reproduce the original
// per-flit computation on all of them, port for port and in order —
// order matters because adaptive selection draws from the RNG per
// candidate set, so a reordered (even if equal) set changes simulations.
func tableInstances(t *testing.T) map[string]topology.Topology {
	t.Helper()
	out := map[string]topology.Topology{}
	add := func(name string, topo topology.Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = topo
	}
	for _, d := range []struct{ x, y int }{{2, 2}, {3, 3}, {4, 4}, {5, 3}, {8, 8}, {2, 7}} {
		m, err := topology.NewMesh(d.x, d.y, 1)
		add(fmt.Sprintf("mesh:%dx%d", d.x, d.y), m, err)
		if d.x > 2 || d.y > 2 {
			tr, err := topology.NewTorus(d.x, d.y, 1)
			add(fmt.Sprintf("torus:%dx%d", d.x, d.y), tr, err)
		}
	}
	for _, p := range []struct{ p, a, h, g int }{{1, 2, 1, 3}, {2, 4, 2, 9}} {
		df, err := topology.NewDragonfly(p.p, p.a, p.h, p.g, 1, 3)
		add(fmt.Sprintf("dragonfly:%d,%d,%d,%d", p.p, p.a, p.h, p.g), df, err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		j, err := topology.NewJellyfish(12, 2, 3, 1, rand.New(rand.NewSource(seed)))
		add(fmt.Sprintf("jellyfish:12,2,3/seed%d", seed), j, err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		im, err := topology.NewIrregularMesh(4, 4, 1, 3, rand.New(rand.NewSource(seed)))
		add(fmt.Sprintf("irregular:4x4:3/seed%d", seed), im, err)
	}
	ft, err := topology.NewFatTree(4, 2, 2, 1)
	add("fattree:4,2,2", ft, err)
	return out
}

// wantPorts normalises nil/empty for comparison against table output.
func wantPorts(ports []int) []int {
	if len(ports) == 0 {
		return []int{}
	}
	return ports
}

// TestMinimalSourceMatchesMinimalPorts: the zero-allocation accessor the
// routing algorithms use (Topology.MinimalPortsInto) returns exactly
// MinimalPorts on every pair of every instance.
func TestMinimalSourceMatchesMinimalPorts(t *testing.T) {
	for name, topo := range tableInstances(t) {
		t.Run(name, func(t *testing.T) {
			var buf []int
			n := topo.NumRouters()
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					want := wantPorts(topo.MinimalPorts(r, dst))
					buf = topo.MinimalPortsInto(buf[:0], r, dst)
					if !reflect.DeepEqual(wantPorts(buf), want) {
						t.Fatalf("(%d -> %d): into=%v, MinimalPorts=%v", r, dst, buf, want)
					}
				}
			}
		})
	}
}

// TestXYTableMatchesXYPort: the flat dimension-ordered table equals the
// per-hop geometry computation on every mesh pair.
func TestXYTableMatchesXYPort(t *testing.T) {
	for name, topo := range tableInstances(t) {
		m, ok := topo.(*topology.Mesh)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tbl := buildXYTable(m)
			n := m.NumRouters()
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					if got, want := int(tbl[r*n+dst]), XYPort(m, r, dst); got != want {
						t.Fatalf("(%d -> %d): table=%d, XYPort=%d", r, dst, got, want)
					}
				}
			}
		})
	}
}

// TestWestFirstTableMatchesDirect: the packed west-first port sets equal
// westFirstPorts, in order, on every mesh pair.
func TestWestFirstTableMatchesDirect(t *testing.T) {
	for name, topo := range tableInstances(t) {
		m, ok := topo.(*topology.Mesh)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tbl := buildPortTable(m.NumRouters(), func(cur, dst int, buf []int) []int {
				return westFirstPorts(m, cur, dst, buf)
			})
			var buf []int
			n := m.NumRouters()
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					want := wantPorts(westFirstPorts(m, r, dst, nil))
					buf = tbl.appendPorts(buf[:0], r, dst)
					if !reflect.DeepEqual(wantPorts(buf), want) {
						t.Fatalf("(%d -> %d): table=%v, direct=%v", r, dst, buf, want)
					}
				}
			}
		})
	}
}

// TestCanonicalTableMatchesDirect: the dragonfly VC-ladder path table
// equals CanonicalMinimalPorts on every pair.
func TestCanonicalTableMatchesDirect(t *testing.T) {
	for name, topo := range tableInstances(t) {
		df, ok := topo.(*topology.Dragonfly)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tbl := canonicalPortTable(df)
			var buf []int
			n := df.NumRouters()
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					want := wantPorts(df.CanonicalMinimalPorts(r, dst))
					buf = tbl.appendPorts(buf[:0], r, dst)
					if !reflect.DeepEqual(wantPorts(buf), want) {
						t.Fatalf("(%d -> %d): table=%v, direct=%v", r, dst, buf, want)
					}
				}
			}
		})
	}
}
