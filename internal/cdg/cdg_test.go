package cdg

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func mesh(t *testing.T, x, y int) *topology.Mesh {
	t.Helper()
	m, err := topology.NewMesh(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestXYAcyclic(t *testing.T) {
	m := mesh(t, 4, 4)
	g := Build(m, 1, XYDep(m))
	if !g.Acyclic() {
		t.Fatalf("XY CDG should be acyclic: %s", g.Describe())
	}
}

func TestWestFirstAcyclic(t *testing.T) {
	m := mesh(t, 5, 4)
	g := Build(m, 2, WestFirstDep(m))
	if !g.Acyclic() {
		t.Fatalf("west-first CDG should be acyclic: %s", g.Describe())
	}
}

func TestMinAdaptiveCyclicOnMesh(t *testing.T) {
	m := mesh(t, 3, 3)
	g := Build(m, 1, MinAdaptiveDep(m))
	if g.Acyclic() {
		t.Fatal("fully-adaptive minimal mesh routing must have a cyclic CDG (that's why it needs SPIN)")
	}
	cycles := g.Cycles()
	if len(cycles) == 0 {
		t.Fatal("no cyclic components reported")
	}
}

func TestMinAdaptiveAcyclicOnLine(t *testing.T) {
	// A 1-D mesh has no turns, so even fully-adaptive routing is acyclic.
	m := mesh(t, 6, 1)
	g := Build(m, 1, MinAdaptiveDep(m))
	if !g.Acyclic() {
		t.Fatalf("1-D adaptive routing should be acyclic: %s", g.Describe())
	}
}

func TestEscapeVCStructure(t *testing.T) {
	m := mesh(t, 4, 4)
	full := Build(m, 3, EscapeDep(m, 3))
	if full.Acyclic() {
		t.Fatal("full escape-VC CDG is expected to be cyclic (regular VCs are unrestricted)")
	}
	escape := Build(m, 3, EscapeSubgraphDep(m))
	if !escape.Acyclic() {
		t.Fatalf("Duato escape sub-network must be acyclic: %s", escape.Describe())
	}
}

// TestDragonflyLadderAcyclic: a ladder is acyclic with one VC per global
// hop of its longest path — two for minimal routing, three for UGAL, whose
// Valiant detour crosses two global channels — and cyclic with one fewer
// (the router clamps the extra hop onto the top rung); free VC use is
// cyclic at any count.
func TestDragonflyLadderAcyclic(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		valiant bool
		floor   int
	}{{false, 2}, {true, 3}} {
		if g := Build(d, tc.floor, DflyLadderDep(d, tc.floor, tc.valiant)); !g.Acyclic() {
			t.Errorf("ladder (valiant %v) at %d VCs must be acyclic: %s", tc.valiant, tc.floor, g.Describe())
		}
		if g := Build(d, tc.floor-1, DflyLadderDep(d, tc.floor-1, tc.valiant)); g.Acyclic() {
			t.Errorf("ladder (valiant %v) at %d VCs must be cyclic: %s", tc.valiant, tc.floor-1, g.Describe())
		}
	}
	free := Build(d, 2, MinAdaptiveDep(d))
	if free.Acyclic() {
		t.Fatal("free-VC dragonfly routing should be cyclic")
	}
}

func TestTorusDORCyclicWithOneVC(t *testing.T) {
	// Dimension-ordered routing on a torus is cyclic with one VC (the
	// wraparound ring) — the classic motivation for bubble flow control
	// and dateline VCs.
	tor, err := topology.NewTorus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tor, 1, TorusDORDep(tor))
	if g.Acyclic() {
		t.Fatal("torus DOR with 1 VC should be cyclic (ring wraparound)")
	}
}

func TestIrregularMeshAdaptiveCyclic(t *testing.T) {
	m := mesh(t, 4, 4)
	g := Build(m, 2, MinAdaptiveDep(m))
	if g.Acyclic() {
		t.Fatal("adaptive routing with 2 VCs still cyclic")
	}
	if g.NumChannels() != len(m.Links())*2 {
		t.Fatalf("channel count %d, want %d", g.NumChannels(), len(m.Links())*2)
	}
}

func TestDescribe(t *testing.T) {
	m := mesh(t, 3, 3)
	if s := Build(m, 1, XYDep(m)).Describe(); s == "" {
		t.Fatal("empty description")
	}
	if s := Build(m, 1, MinAdaptiveDep(m)).Describe(); s == "" {
		t.Fatal("empty description")
	}
}

func TestCyclesReportMembers(t *testing.T) {
	m := mesh(t, 3, 3)
	g := Build(m, 1, MinAdaptiveDep(m))
	cycles := g.Cycles()
	if len(cycles) == 0 {
		t.Fatal("no cycles")
	}
	links := m.Links()
	for _, cyc := range cycles {
		for _, ch := range cyc {
			if ch.Link < 0 || ch.Link >= len(links) {
				t.Fatalf("bad link index %d", ch.Link)
			}
			if ch.VC != 0 {
				t.Fatalf("unexpected VC class %d in 1-VC analysis", ch.VC)
			}
		}
	}
}

func TestBuildCountsAreStable(t *testing.T) {
	m := mesh(t, 4, 4)
	a := Build(m, 2, WestFirstDep(m))
	b := Build(m, 2, WestFirstDep(m))
	if a.NumChannels() != b.NumChannels() || a.NumEdges() != b.NumEdges() {
		t.Fatal("CDG construction not deterministic")
	}
	if a.NumChannels() != len(m.Links())*2 {
		t.Fatalf("channels = %d, want %d", a.NumChannels(), len(m.Links())*2)
	}
}

func TestJellyfishAdaptiveCyclic(t *testing.T) {
	rng := newRand(11)
	j, err := topology.NewJellyfish(12, 1, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(j, 1, MinAdaptiveDep(j))
	if g.Acyclic() {
		t.Fatal("random-graph adaptive routing should be cyclic (the paper's motivation for SPIN)")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
