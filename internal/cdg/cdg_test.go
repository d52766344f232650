package cdg

import (
	"errors"
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

func TestDragonflyLadderAcyclic(t *testing.T) {
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(d, 2, DflyLadderDep(d, 2))
	if !g.Acyclic() {
		t.Fatalf("dragonfly VC ladder must be acyclic: %s", g.Describe())
	}
	free := Build(d, 2, DflyFreeDep(d))
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

// TestDepForTable covers every routing name either of the two former
// tables (cmd/spincheck's resolveDep, harness's cdgDep) accepted: on a
// topology the routing runs on, DepFor yields a model with the expected
// verdict; on one it does not, ErrWrongTopology; and a name neither
// table knew is ErrNoStaticModel, never a silent nil.
func TestDepForTable(t *testing.T) {
	m := mesh(t, 4, 4)
	tor, err := topology.NewTorus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		on      topology.Topology
		vcs     int
		acyclic bool
		wrong   topology.Topology // nil: runs anywhere
	}{
		{"", m, 1, false, nil},
		{"min_adaptive", m, 1, false, nil},
		{"favors_min", m, 1, false, nil},
		{"favors_nmin", m, 1, false, nil},
		{"xy", m, 1, true, d},
		{"westfirst", m, 2, true, d},
		{"escape_vc", m, 3, false, d},
		{"escape_subnet", m, 3, true, d},
		{"torus_dor", tor, 1, false, m},
		{"dfly_min_ladder", d, 2, true, m},
		{"ugal_ladder", d, 2, true, m},
		{"dfly_free", d, 2, false, m},
		{"dfly_min", d, 2, false, m},
		{"ugal_spin", d, 2, false, tor},
	} {
		dep, err := DepFor(tc.name, tc.on, tc.vcs)
		if err != nil || dep == nil {
			t.Errorf("DepFor(%q) on %s: dep nil=%v, err %v", tc.name, tc.on.Name(), dep == nil, err)
			continue
		}
		if g := Build(tc.on, tc.vcs, dep); g.Acyclic() != tc.acyclic {
			t.Errorf("DepFor(%q) on %s: acyclic=%v, want %v (%s)", tc.name, tc.on.Name(), g.Acyclic(), tc.acyclic, g.Describe())
		}
		if tc.wrong == nil {
			continue
		}
		if dep, err := DepFor(tc.name, tc.wrong, tc.vcs); dep != nil || !errors.Is(err, ErrWrongTopology) {
			t.Errorf("DepFor(%q) on %s: dep nil=%v, err %v, want ErrWrongTopology", tc.name, tc.wrong.Name(), dep == nil, err)
		}
	}
	if dep, err := DepFor("not_a_routing", m, 1); dep != nil || !errors.Is(err, ErrNoStaticModel) {
		t.Errorf("unknown routing: dep nil=%v, err %v, want ErrNoStaticModel", dep == nil, err)
	}
}
