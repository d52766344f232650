package cdg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The graphs here are built from the routings the simulator runs.

func mesh(t *testing.T, x, y int) *topology.Mesh {
	t.Helper()
	m, err := topology.NewMesh(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// own builds rt's own CDG: every VC of every candidate.
func own(topo topology.Topology, vcs int, rt Routing) *Graph { return Build(topo, vcs, rt, sim.AllVCs) }

// minAdaptive builds fully-adaptive minimal routing's CDG.
func minAdaptive(topo topology.Topology, vcs int) *Graph {
	return own(topo, vcs, &routing.MinAdaptive{Topo: topo})
}

func TestXYAcyclic(t *testing.T) {
	m := mesh(t, 4, 4)
	g := own(m, 1, &routing.XY{Mesh: m})
	if !g.Acyclic() {
		t.Fatalf("XY CDG should be acyclic: %s", g.Describe())
	}
}

func TestWestFirstAcyclic(t *testing.T) {
	m := mesh(t, 5, 4)
	g := own(m, 2, &routing.WestFirst{Mesh: m})
	if !g.Acyclic() {
		t.Fatalf("west-first CDG should be acyclic: %s", g.Describe())
	}
}

func TestMinAdaptiveCyclicOnMesh(t *testing.T) {
	m := mesh(t, 3, 3)
	g := minAdaptive(m, 1)
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
	g := minAdaptive(m, 1)
	if !g.Acyclic() {
		t.Fatalf("1-D adaptive routing should be acyclic: %s", g.Describe())
	}
}

func TestEscapeVCStructure(t *testing.T) {
	m := mesh(t, 4, 4)
	rt := &routing.EscapeVC{Mesh: m, VCs: 3}
	full := own(m, 3, rt)
	if full.Acyclic() {
		t.Fatal("full escape-VC CDG is expected to be cyclic (regular VCs are unrestricted)")
	}
	if full.Offered&1 == 0 {
		t.Fatalf("some state does not request the escape VC (offered %#x)", full.Offered)
	}
	escape := Build(m, 3, rt, 1)
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
		ladder func(vcs int) Routing
		floor  int
	}{
		{func(vcs int) Routing { return &routing.DflyMinimal{Dfly: d, VCLadder: true, VCs: vcs} }, 2},
		{func(vcs int) Routing { return &routing.UGAL{Dfly: d, VCLadder: true, VCs: vcs} }, 3},
	} {
		name := tc.ladder(tc.floor).Name()
		if g := own(d, tc.floor, tc.ladder(tc.floor)); !g.Acyclic() {
			t.Errorf("%s at %d VCs must be acyclic: %s", name, tc.floor, g.Describe())
		}
		if g := own(d, tc.floor-1, tc.ladder(tc.floor-1)); g.Acyclic() {
			t.Errorf("%s at %d VCs must be cyclic: %s", name, tc.floor-1, g.Describe())
		}
	}
	free := own(d, 2, &routing.DflyMinimal{Dfly: d, VCs: 2})
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
	g := own(tor, 1, &routing.TorusDOR{Mesh: tor})
	if g.Acyclic() {
		t.Fatal("torus DOR with 1 VC should be cyclic (ring wraparound)")
	}
}

func TestIrregularMeshAdaptiveCyclic(t *testing.T) {
	m := mesh(t, 4, 4)
	g := minAdaptive(m, 2)
	if g.Acyclic() {
		t.Fatal("adaptive routing with 2 VCs still cyclic")
	}
	if g.NumChannels() != len(m.Links())*2 {
		t.Fatalf("channel count %d, want %d", g.NumChannels(), len(m.Links())*2)
	}
}

func TestDescribe(t *testing.T) {
	m := mesh(t, 3, 3)
	if s := own(m, 1, &routing.XY{Mesh: m}).Describe(); s == "" {
		t.Fatal("empty description")
	}
	if s := minAdaptive(m, 1).Describe(); s == "" {
		t.Fatal("empty description")
	}
}

func TestCyclesReportMembers(t *testing.T) {
	m := mesh(t, 3, 3)
	g := minAdaptive(m, 1)
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
	a := own(m, 2, &routing.WestFirst{Mesh: m})
	b := own(m, 2, &routing.WestFirst{Mesh: m})
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
	g := minAdaptive(j, 1)
	if g.Acyclic() {
		t.Fatal("random-graph adaptive routing should be cyclic (the paper's motivation for SPIN)")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestValiantLegsAddEdges: a Valiant routing's graph holds its minimal
// counterpart's and more — the dependencies at the misroute turn, such as
// a FAvORS-NMin packet's U-turn at its intermediate router.
func TestValiantLegsAddEdges(t *testing.T) {
	m := mesh(t, 4, 4)
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		topo             topology.Topology
		minimal, valiant Routing
		wantUTurn        bool
	}{
		{m, &routing.MinAdaptive{Topo: m}, &routing.FAvORS{Topo: m, NonMinimal: true}, true},
		{d, &routing.DflyMinimal{Dfly: d, VCs: 1}, &routing.UGAL{Dfly: d, VCs: 1}, false},
	} {
		small, big := own(tc.topo, 1, tc.minimal), own(tc.topo, 1, tc.valiant)
		links := tc.topo.Links()
		uTurns := 0
		for u := 0; u < big.NumChannels(); u++ {
			for _, v := range big.adj[big.lo[u]:big.lo[u+1]] {
				a, b := links[u], links[v]
				if a.Src == b.Dst && a.Dst == b.Src {
					uTurns++
				}
			}
		}
		for u := 0; u < small.NumChannels(); u++ {
			for _, v := range small.adj[small.lo[u]:small.lo[u+1]] {
				if !slices.Contains(big.adj[big.lo[u]:big.lo[u+1]], v) {
					t.Errorf("%s lacks %s's edge %d -> %d", tc.valiant.Name(), tc.minimal.Name(), u, v)
				}
			}
		}
		if big.NumEdges() <= small.NumEdges() {
			t.Errorf("%s: %d edges, %s: %d; want more", tc.valiant.Name(), big.NumEdges(), tc.minimal.Name(), small.NumEdges())
		}
		if tc.wantUTurn && uTurns == 0 {
			t.Errorf("%s: no U-turn at an intermediate", tc.valiant.Name())
		}
	}
}
