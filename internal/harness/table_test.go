package harness

import (
	"testing"

	spin "repro"
	"repro/internal/cdg"
)

// TestRoutingTable checks the root package's routing table against itself
// on every generator topology. An entry builds, and has a model, exactly
// when the topology fits its needs and the VC count (one below its floor up
// to 3) meets its floor. At the floor, a schemeless entry's proving model —
// its own, or its Proof's (Duato's escape sub-network) — is acyclic, and
// any other entry's model is cyclic. The generator takes scheme and VC
// count from these entries, so this is what makes every generated scenario
// deadlock-free by construction or run under recovery.
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
			proof := e
			if e.Proof != "" {
				proof = spin.LookupRouting(e.Proof)
			}
			dep, err := proof.Model(topo, e.MinVCs)
			if err != nil {
				t.Fatalf("%s on %s: %v", proof.Name, tc.spec, err)
			}
			if g := cdg.Build(topo, e.MinVCs, dep); g.Acyclic() != e.Schemeless {
				t.Errorf("%s on %s at %d VCs: schemeless %v, but %s's CDG reads %s", e.Name, tc.spec, e.MinVCs, e.Schemeless, proof.Name, g.Describe())
			}
		}
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
