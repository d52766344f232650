package spin_test

import (
	"maps"
	"reflect"
	"testing"

	spin "repro"
	"repro/internal/sim"
)

func TestFacadeQuickRun(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology:   "mesh:4x4",
		Routing:    "favors_min",
		Scheme:     "spin",
		Traffic:    "uniform_random",
		Rate:       0.2,
		VCsPerVNet: 1,
		TDD:        32,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3000)
	if s.Stats().Ejected == 0 {
		t.Fatal("no packets delivered")
	}
	if !s.Drain(50000) {
		t.Fatal("facade simulation failed to drain")
	}
	if s.AvgLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestFacadeTopologySpecs(t *testing.T) {
	specs := []string{"mesh:4x4", "torus:4x4", "ring:6", "dragonfly:2,4,2,9", "irregular:5x5:3", "jellyfish:12,1,4", "fattree:4,2,2"}
	for _, spec := range specs {
		topo, err := spin.BuildTopology(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if topo.NumRouters() == 0 {
			t.Fatalf("%s: empty topology", spec)
		}
	}
	if _, err := spin.BuildTopology("blob:3", 1); err == nil {
		t.Fatal("bad topology accepted")
	}
	if _, err := spin.BuildTopology("mesh:ZxZ", 1); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := spin.BuildTopology("", 1); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestFacadeRoutingValidation(t *testing.T) {
	dfly, _ := spin.BuildTopology("dragonfly:2,4,2,9", 1)
	mesh, _ := spin.BuildTopology("mesh:4x4", 1)
	if _, err := spin.BuildRouting("xy", dfly, 1); err == nil {
		t.Fatal("xy on dragonfly accepted")
	}
	if _, err := spin.BuildRouting("ugal_ladder", mesh, 3); err == nil {
		t.Fatal("ugal on mesh accepted")
	}
	if _, err := spin.BuildRouting("escape_vc", mesh, 1); err == nil {
		t.Fatal("escape_vc with 1 VC accepted")
	}
	if _, err := spin.BuildRouting("nope", mesh, 1); err == nil {
		t.Fatal("unknown routing accepted")
	}
}

// TestLadderFloors: a dragonfly ladder builds only with one VC per global
// hop of its longest path — two for minimal routing, three for UGAL's
// Valiant detour. internal/routing's TestLadderBelowFloorDeadlocks shows
// what the refused configurations do.
func TestLadderFloors(t *testing.T) {
	for _, tc := range []struct {
		routing string
		floor   int
	}{{"dfly_min_ladder", 2}, {"ugal_ladder", 3}} {
		cfg := spin.Config{Topology: "dragonfly:2,4,2,9", Routing: tc.routing, Traffic: "uniform_random", Rate: 0.3, VCsPerVNet: tc.floor - 1}
		if _, err := spin.New(cfg); err == nil {
			t.Errorf("%s at %d VCs built", tc.routing, cfg.VCsPerVNet)
		}
		cfg.VCsPerVNet = tc.floor
		if _, err := spin.New(cfg); err != nil {
			t.Errorf("%s at %d VCs: %v", tc.routing, cfg.VCsPerVNet, err)
		}
	}
}

func TestAllPresetsBuildAndRun(t *testing.T) {
	for _, p := range spin.Presets() {
		cfg := p.Config
		cfg.Traffic = "uniform_random"
		cfg.Rate = 0.05
		cfg.Seed = 3
		cfg.TDD = 64
		// Shrink the paper-scale presets for test speed.
		if cfg.Topology == "dragonfly1024" {
			cfg.Topology = "dragonfly:2,4,2,9"
		}
		if cfg.Topology == "mesh:8x8" || cfg.Topology == "mesh:64x64" {
			cfg.Topology = "mesh:4x4"
		}
		s, err := spin.New(cfg)
		if err != nil {
			t.Fatalf("preset %s: %v", p.Name, err)
		}
		s.Run(2000)
		if s.Stats().Ejected == 0 {
			t.Fatalf("preset %s: no traffic delivered", p.Name)
		}
		if !s.Drain(100000) {
			t.Fatalf("preset %s: failed to drain", p.Name)
		}
	}
}

func TestPresetByName(t *testing.T) {
	if _, err := spin.PresetByName("mesh_favors_min"); err != nil {
		t.Fatal(err)
	}
	if _, err := spin.PresetByName("nonsense"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestPresetsCopied: Presets hands out a copy, so a caller that edits it
// cannot change what PresetByName resolves.
func TestPresetsCopied(t *testing.T) {
	ps := spin.Presets()
	want := ps[0]
	ps[0].Config.Topology, ps[0].Config.VCsPerVNet = "ring:4", 7
	got, err := spin.PresetByName(want.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(spin.Presets()[0], want) {
		t.Fatalf("after editing Presets()[0], PresetByName(%q) = %+v, want %+v", want.Name, got, want)
	}
}

func TestFacadeVNetSpread(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology:   "mesh:4x4",
		Routing:    "xy",
		VNets:      3,
		VCsPerVNet: 1,
		Traffic:    "uniform_random",
		Rate:       0.2,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	if s.Stats().Ejected == 0 {
		t.Fatal("no traffic")
	}
	if !s.Drain(20000) {
		t.Fatal("3-vnet facade run failed to drain")
	}
}

func TestFacadeSchemeValidation(t *testing.T) {
	if _, err := spin.New(spin.Config{Topology: "mesh:4x4", Scheme: "warp_drive"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := spin.New(spin.Config{Topology: "dragonfly:2,4,2,9", Routing: "dfly_min", Scheme: "static_bubble"}); err == nil {
		t.Fatal("static_bubble on dragonfly accepted")
	}
	if _, err := spin.New(spin.Config{Topology: "mesh:4x4", Routing: "xy", Scheme: "ring_bubble"}); err == nil {
		t.Fatal("ring_bubble on non-torus accepted")
	}
}

func TestFacadeRingBubbleTorus(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology: "torus:4x4",
		Scheme:   "ring_bubble",
		Routing:  "min_adaptive", // overridden semantics: bubble guards DOR-style rings
		Traffic:  "uniform_random",
		Rate:     0.1,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1500)
	if s.Stats().Ejected == 0 {
		t.Fatal("no traffic under ring bubble")
	}
}

func TestFacadeTDDPassthrough(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology:   "mesh:4x4",
		Routing:    "min_adaptive",
		Scheme:     "spin",
		TDD:        16,
		VCsPerVNet: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build a quick square deadlock via manual injection and verify fast
	// detection (low TDD) resolves it within a few hundred cycles.
	n := s.Network()
	ring := []int{0, 1, 5, 4}
	dsts := []int{5, 4, 0, 1}
	for i := range ring {
		n.InjectPacket(ring[i], simPacket(dsts[i]))
	}
	s.Run(800)
	if s.Stats().Ejected != 4 {
		t.Fatalf("low-TDD recovery did not resolve the ring: %d/4 (spins=%d)", s.Stats().Ejected, s.Spins())
	}
}

func simPacket(dst int) sim.PacketSpec { return sim.PacketSpec{Dst: dst, Length: 2} }

func TestPresetsCoverTableIII(t *testing.T) {
	// Every Table III design of the paper is represented: four dragonfly
	// rows and six mesh rows, each naming its theory and type.
	byTheory := map[string]int{}
	for _, p := range spin.Presets() {
		if p.Theory == "" || p.Type == "" || p.Config.Topology == "" {
			t.Fatalf("incomplete preset %q", p.Name)
		}
		if p.Config.VNets != 3 {
			t.Fatalf("preset %q does not run 3 vnets", p.Name)
		}
		byTheory[p.Theory]++
	}
	for _, theory := range []string{"Dally", "Duato", "FlowCtrl", "SPIN"} {
		if byTheory[theory] == 0 {
			t.Fatalf("no preset exercises %s theory", theory)
		}
	}
}

// TestCountTruthChangesNoRun: a Fig. 9 point (CountTruth: true, the one
// in-process field of Config) runs exactly as the same config without it —
// the same ejections, cycle for cycle, and the same Stats — apart from the
// true/false-positive counters it exists to fill.
func TestCountTruthChangesNoRun(t *testing.T) {
	run := func(countTruth bool) ([]sim.Event, sim.Stats) {
		s, err := spin.New(spin.Config{
			Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
			Traffic: "uniform_random", Rate: 0.4, VNets: 3, VCsPerVNet: 1,
			Seed: 9, Warmup: 400, Cycles: 4000, CountTruth: countTruth,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ejects []sim.Event
		s.Network().AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) { ejects = append(ejects, e) }))
		s.Run(4000)
		return ejects, *s.Stats()
	}
	plainEjects, plain := run(false)
	truthEjects, truth := run(true)
	classified := truth.Counter("true_positive_spins") + truth.Counter("false_positive_spins")
	if truth.Spins == 0 || classified != truth.Spins {
		t.Fatalf("%d spins, %d classified: the point no longer exercises CountTruth", truth.Spins, classified)
	}
	if plainEjects == nil || !reflect.DeepEqual(plainEjects, truthEjects) {
		t.Errorf("CountTruth changed the ejection stream: %d ejections without, %d with", len(plainEjects), len(truthEjects))
	}
	truth.Counters = maps.Clone(truth.Counters)
	delete(truth.Counters, "true_positive_spins")
	delete(truth.Counters, "false_positive_spins")
	if !reflect.DeepEqual(plain, truth) {
		t.Errorf("CountTruth changed the run's Stats:\nwithout %+v\nwith    %+v", plain, truth)
	}
}
