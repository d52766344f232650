package harness

import (
	"fmt"
	"slices"
	"testing"

	spin "repro"
	"repro/internal/cdg"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestRoutingTable checks the root package's routing table against itself
// on every generator topology. An entry builds exactly when the topology
// fits its needs and the VC count (one below its floor up to 3) meets its
// floor; it is analysed whenever the topology fits and there is a VC. At
// the floor, a schemeless entry's verdict names a theorem — Dally's or
// Duato's — and any other entry's needs recovery. The generator takes
// scheme and VC count from these entries, so this is what makes every
// generated scenario deadlock-free by construction or run under recovery.
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
				if _, err := e.Build(topo, vcs); (err == nil) != legal {
					t.Errorf("%s on %s at %d VCs: build error %v", e.Name, tc.spec, vcs, err)
				}
				if _, _, err := e.Verdict(topo, vcs); (err == nil) != (fits && vcs > 0) {
					t.Errorf("%s on %s at %d VCs: analysis error %v", e.Name, tc.spec, vcs, err)
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
// neither — as for a ladder below its floor.
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
		{"dragonfly:2,4,2,9", "dfly_min", 1, spin.NeedsRecovery},
		{"dragonfly:2,4,2,9", "ugal_ladder", 2, spin.NeedsRecovery},
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
// a 33rd VC class rather than analyse or build channels no mask can name.
func TestRoutingVCCeiling(t *testing.T) {
	topo, err := spin.BuildTopology("mesh:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := spin.LookupRouting("min_adaptive")
	if _, err := e.Build(topo, 33); err == nil {
		t.Error("Build took 33 VCs")
	}
	if _, _, err := e.Verdict(topo, 33); err == nil {
		t.Error("Verdict took 33 VCs")
	}
	if _, _, err := e.Verdict(topo, 32); err != nil {
		t.Errorf("Verdict refused 32 VCs: %v", err)
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

// withinCandidates runs a routing and fails the test at any Route call
// whose requests its Candidates do not cover, or any packet its AtSource
// sends via an intermediate unless it declares itself Valiant: the two
// things the CDG, and so the verdict, rest on.
type withinCandidates struct {
	cdg.Routing
	t        *testing.T
	valiant  bool
	detours  int // packets AtSource sent via an intermediate
	reqs     []sim.PortRequest
	scenario string
}

func (w *withinCandidates) AtSource(r *sim.Router, p *sim.Packet) {
	w.Routing.AtSource(r, p)
	if p.Intermediate >= 0 {
		w.detours++
		if !w.valiant {
			w.t.Errorf("%s: a packet r%d->r%d sent via %d, but the routing is not Valiant", w.scenario, p.SrcRouter, p.DstRouter, p.Intermediate)
		}
	}
}

func (w *withinCandidates) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	q := *p
	w.reqs = w.Candidates(r.ID, inPort, &q, w.reqs[:0])
	n := len(buf)
	buf = w.Routing.Route(r, inPort, p, buf)
	if q.Phase != p.Phase {
		w.t.Errorf("%s: at router %d, Candidates left %v in phase %d, Route in %d", w.scenario, r.ID, p, q.Phase, p.Phase)
	}
	for _, req := range buf[n:] {
		if !slices.ContainsFunc(w.reqs, func(c sim.PortRequest) bool { return c.Port == req.Port && req.VCMask&^c.VCMask == 0 }) {
			w.t.Errorf("%s: at router %d, %v requests %+v outside its candidates %+v", w.scenario, r.ID, p, req, w.reqs)
		}
	}
	return buf
}

// TestRouteWithinCandidates ties the verdicts to the running code: every
// routing in the table, on every generator topology it fits, at its floor
// and at 3 VCs, runs a short saturated network in which each request Route
// makes lies within its Candidates, which the CDG is built from.
func TestRouteWithinCandidates(t *testing.T) {
	detours := map[string]int{}
	for _, tc := range topoChoices {
		topo, err := spin.BuildTopology(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		pattern, err := traffic.ByName("uniform_random", topo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spin.Routings {
			e := &spin.Routings[i]
			if !e.Needs.Fits(topo) {
				continue
			}
			for _, vcs := range []int{e.MinVCs, 3} {
				rt, err := e.Build(topo, vcs)
				if err != nil {
					t.Fatal(err)
				}
				v, ok := rt.(interface{ Valiant() bool })
				w := &withinCandidates{Routing: rt.(cdg.Routing), t: t, valiant: ok && v.Valiant(),
					scenario: fmt.Sprintf("%s on %s at %d VCs", e.Name, tc.spec, vcs)}
				n, err := sim.NewNetwork(sim.Config{Topology: topo, Routing: w, VCsPerVNet: vcs, Seed: 5,
					Traffic: &traffic.Synthetic{Pattern: pattern, Rate: 0.9}})
				if err != nil {
					t.Fatal(err)
				}
				n.Run(400)
				if n.Stats().Ejected == 0 {
					t.Errorf("%s: nothing delivered", w.scenario)
				}
				if w.valiant {
					detours[e.Name] += w.detours
				}
			}
		}
	}
	for name, n := range detours {
		if n == 0 {
			t.Errorf("%s never sent a packet via an intermediate: its Valiant legs went unchecked", name)
		}
	}
}
