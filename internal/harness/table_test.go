package harness

import (
	"testing"

	spin "repro"
)

// TestRoutingTable checks the root package's routing table against itself
// on every generator topology. An entry builds, and has a model, exactly
// when the topology fits its needs and the VC count (one below its floor up
// to 3) meets its floor. At the floor, a schemeless entry's verdict names a
// theorem — Dally's or Duato's — and any other entry's needs recovery. The
// generator takes scheme and VC count from these entries, so this is what
// makes every generated scenario deadlock-free by construction or run under
// recovery.
func TestRoutingTable(t *testing.T) {
	for _, tc := range topoChoices {
		topo, err := spin.BuildTopology(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spin.Routings {
			e := &spin.Routings[i]
			fits := e.Needs.Fits(topo)
			for vcs := e.MinVCs - 1; vcs <= 3; vcs++ {
				legal := fits && vcs >= e.MinVCs
				if _, err := e.Build(topo, vcs); (err == nil) != (legal && e.Runs()) {
					t.Errorf("%s on %s at %d VCs: build error %v", e.Name, tc.spec, vcs, err)
				}
				if _, err := e.Model(topo, vcs); (err == nil) != legal {
					t.Errorf("%s on %s at %d VCs: model error %v", e.Name, tc.spec, vcs, err)
				}
			}
			if !fits {
				continue
			}
			theorem, g, err := e.Verdict(topo, e.MinVCs)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name, tc.spec, err)
			}
			if (theorem != spin.NeedsRecovery) != e.Schemeless {
				t.Errorf("%s on %s at %d VCs: schemeless %v, but the verdict is %s (%s)", e.Name, tc.spec, e.MinVCs, e.Schemeless, theorem, g.Describe())
			}
		}
	}
}

// TestRoutingVerdicts names the theorem behind each kind of verdict: an
// acyclic CDG of its own (Dally), an acyclic escape sub-network (Duato), or
// neither.
func TestRoutingVerdicts(t *testing.T) {
	for _, tc := range []struct {
		topo, routing string
		vcs           int
		want          spin.Theorem
	}{
		{"mesh:4x4", "xy", 1, spin.Dally},
		{"dragonfly:2,4,2,9", "dfly_min_ladder", 2, spin.Dally},
		{"mesh:4x4", "escape_vc", 2, spin.Duato},
		{"mesh:4x4", "min_adaptive", 1, spin.NeedsRecovery},
		{"dragonfly:2,4,2,9", "dfly_free", 1, spin.NeedsRecovery},
	} {
		topo, err := spin.BuildTopology(tc.topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, g, err := spin.LookupRouting(tc.routing).Verdict(topo, tc.vcs)
		if err != nil {
			t.Fatalf("%s on %s at %d VCs: %v", tc.routing, tc.topo, tc.vcs, err)
		}
		if got != tc.want {
			t.Errorf("%s on %s at %d VCs: verdict %s, want %s (%s)", tc.routing, tc.topo, tc.vcs, got, tc.want, g.Describe())
		}
	}
}

// TestRoutingVCCeiling: a VC mask has one bit per VC, so the table refuses
// a 33rd VC class rather than model or build channels no mask can name.
func TestRoutingVCCeiling(t *testing.T) {
	topo, err := spin.BuildTopology("mesh:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := spin.LookupRouting("min_adaptive")
	if _, err := e.Build(topo, 33); err == nil {
		t.Error("Build took 33 VCs")
	}
	if _, err := e.Model(topo, 33); err == nil {
		t.Error("Model took 33 VCs")
	}
	if _, err := e.Model(topo, 32); err != nil {
		t.Errorf("Model refused 32 VCs: %v", err)
	}
}

// TestCDGCutModelsTheRunRouting: the forensics cut of a Table III preset
// describes the routing its network runs, including the one static_bubble
// forces in place of the scenario's.
func TestCDGCutModelsTheRunRouting(t *testing.T) {
	for _, p := range spin.Presets() {
		sc := p.Config
		sc.Topology = map[string]string{"dragonfly1024": "dragonfly:2,4,2,9", "mesh:64x64": "mesh:4x4", "mesh:8x8": "mesh:4x4"}[sc.Topology]
		s, err := sc.Sim()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cut, want := BuildCDGCut(sc), s.Network().Config().Routing.Name()
		if cut == nil {
			t.Errorf("%s: no CDG cut of %s", p.Name, want)
		} else if cut.Routing != want {
			t.Errorf("%s: the cut models %s, the network runs %s", p.Name, cut.Routing, want)
		}
	}
}
