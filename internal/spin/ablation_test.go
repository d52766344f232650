package spin_test

// The ablations of DESIGN.md §4: each varies one of SPIN's design choices
// (the detection threshold, the rotating-priority epoch, probe_move, probe
// forking) under one fixed adversarial load, building the scheme directly
// so that the switches only this package has can be set.

import (
	"testing"

	spinapi "repro"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ablationRun runs SPIN built from cfg for 6000 cycles on the ablation
// load: a 4x4 mesh with min_adaptive routing, one vnet of vcs VCs of depth
// 5, bit_complement at 0.5 with half the packets 5-flit data, seed 13,
// statistics from cycle 500. It is the facade's run of that configuration
// with the scheme built from cfg.
func ablationRun(tb testing.TB, cfg spin.Config, vcs int) *sim.Stats {
	tb.Helper()
	mesh, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	pat, err := traffic.ByName("bit_complement", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.MinAdaptive{Topo: mesh},
		Scheme:     spin.New(cfg),
		VNets:      1,
		VCsPerVNet: vcs,
		VCDepth:    5,
		Seed:       13,
		StatsStart: 500,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: 0.5, DataFrac: 0.5, VNets: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	net.Run(6000)
	return net.Stats()
}

// ablation is one design choice's variants, run at vcs VCs per vnet.
// counter names the count each variant reports beside its latency.
type ablation struct {
	vcs      int
	counter  string
	variants []ablationVariant
}

type ablationVariant struct {
	name string
	cfg  spin.Config
}

// measure runs a variant and reports its statistics and the ablation's
// counter.
func (a ablation) measure(tb testing.TB, v ablationVariant) (*sim.Stats, int64) {
	st := ablationRun(tb, v.cfg, a.vcs)
	if a.counter == "spins" {
		return st, st.Spins
	}
	return st, st.Counter(a.counter)
}

var (
	// Small tDD detects fast but probes more; large tDD waits longer
	// before recovering.
	ablationTDD = ablation{1, "spins", []ablationVariant{
		{"tdd_32", spin.Config{TDD: 32}},
		{"tdd_128", spin.Config{TDD: 128}},
		{"tdd_512", spin.Config{TDD: 512}},
	}}
	// The rotating-priority epoch is EpochFactor × tDD.
	ablationEpoch = ablation{1, "spins", []ablationVariant{
		{"epoch_2", spin.Config{TDD: 64, EpochFactor: 2}},
		{"epoch_4", spin.Config{TDD: 64, EpochFactor: 4}},
		{"epoch_8", spin.Config{TDD: 64, EpochFactor: 8}},
	}}
	// Without probe_move every spin is followed by a fresh detection.
	ablationProbeMove = ablation{1, "spins", []ablationVariant{
		{"probe_move_on", spin.Config{TDD: 64}},
		{"probe_move_off", spin.Config{TDD: 64, DisableProbeMove: true}},
	}}
	// Forking matters where inter-dependent cycles exist: several VCs.
	ablationProbeFork = ablation{3, "recoveries", []ablationVariant{
		{"fork_on", spin.Config{TDD: 64}},
		{"fork_off", spin.Config{TDD: 64, DisableProbeFork: true}},
	}}
)

// bench runs each variant as a sub-benchmark reporting avg_latency, the
// ablation's counter and the packets delivered (a gridlocked variant
// delivers none in the measurement window and reads avg_latency 0).
func (a ablation) bench(b *testing.B) {
	for _, v := range a.variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, n := a.measure(b, v)
				b.ReportMetric(st.AvgLatency(), "avg_latency")
				b.ReportMetric(float64(n), a.counter)
				b.ReportMetric(float64(st.Ejected), "delivered")
			}
		})
	}
}

func BenchmarkAblationTDD(b *testing.B)       { ablationTDD.bench(b) }
func BenchmarkAblationEpoch(b *testing.B)     { ablationEpoch.bench(b) }
func BenchmarkAblationProbeMove(b *testing.B) { ablationProbeMove.bench(b) }
func BenchmarkAblationProbeFork(b *testing.B) { ablationProbeFork.bench(b) }

// TestAblationSwitchesTakeEffect: within each ablation no two variants may
// measure the same (latency, counter) pair — a switch that does not reach
// the scheme runs every variant identically — and the ablation run at
// the paper's tDD is the facade's run of the same configuration.
func TestAblationSwitchesTakeEffect(t *testing.T) {
	type outcome struct {
		lat float64
		n   int64
	}
	for name, a := range map[string]ablation{
		"tdd": ablationTDD, "epoch": ablationEpoch, "probe_move": ablationProbeMove, "probe_fork": ablationProbeFork,
	} {
		seen := map[outcome]string{}
		for _, v := range a.variants {
			st, n := a.measure(t, v)
			o := outcome{st.AvgLatency(), n}
			if other, dup := seen[o]; dup {
				t.Errorf("%s: %s and %s both measure avg_latency %.1f, %s %d", name, other, v.name, o.lat, a.counter, n)
			}
			seen[o] = v.name
		}
	}

	s, err := spinapi.New(spinapi.Config{
		Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "bit_complement", Rate: 0.5, Seed: 13, Warmup: 500, Cycles: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6000)
	st, spins := ablationTDD.measure(t, ablationTDD.variants[1])
	if lat := st.AvgLatency(); lat != s.AvgLatency() || spins != s.Spins() || st.Ejected != s.Stats().Ejected {
		t.Errorf("ablation run at tDD 128 measures avg_latency %.1f, spins %d, delivered %d; the facade's run %.1f, %d, %d",
			lat, spins, st.Ejected, s.AvgLatency(), s.Spins(), s.Stats().Ejected)
	}
}
