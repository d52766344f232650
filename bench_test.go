package spin_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. The figure benchmarks run the same sweeps as
// cmd/spinsweep at reduced scale and report the headline quantity of the
// figure through b.ReportMetric, so `go test -bench .` regenerates the
// whole evaluation. The ablations called out in DESIGN.md live with the
// scheme they ablate: `go test -bench Ablation ./internal/spin`.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	spin "repro"
	"repro/internal/exp"
	"repro/internal/runner"
)

// benchOpts keeps benchmark sweeps fast while preserving shape. Sweeps
// run on the parallel runner at the default worker count (GOMAXPROCS);
// BenchmarkFig7Workers isolates the scaling behaviour.
func benchOpts() exp.Options {
	return exp.Options{Cycles: 4000, Warmup: 400, Seed: 9}
}

// BenchmarkFig7Workers measures the sweep engine's scaling: the same
// figure at 1, 2, 4 and all-core worker counts. Results are identical
// across sub-benchmarks; only wall-clock should differ.
func BenchmarkFig7Workers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			o := benchOpts()
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				figs, err := exp.Fig7(context.Background(), o)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(figs)), "patterns")
			}
		})
	}
}

// BenchmarkRunnerOverhead measures the job engine's fixed cost with
// trivial jobs — the floor under every parallel sweep.
func BenchmarkRunnerOverhead(b *testing.B) {
	jobs := make([]runner.Job[int64], 256)
	for i := range jobs {
		jobs[i] = runner.Job[int64]{
			Key: fmt.Sprintf("noop/%d", i),
			Run: func(_ context.Context, seed int64) (int64, error) { return seed, nil },
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(context.Background(), runner.Options{Seed: 9}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table2() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table3() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig3(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		min := 0.0
		for _, e := range res.Entries {
			if e.MinRate > 0 && (min == 0 || e.MinRate < min) {
				min = e.MinRate
			}
		}
		b.ReportMetric(min, "min_deadlock_rate")
	}
}

func BenchmarkFig6(b *testing.B) {
	o := benchOpts()
	o.Cycles = 2500
	for i := 0; i < b.N; i++ {
		figs, err := exp.Fig6(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(figs)), "patterns")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := exp.Fig7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(figs)), "patterns")
	}
}

func BenchmarkFig8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8a(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoMean(), "edp_geomean_vs_escape")
	}
}

func BenchmarkFig8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8b(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Entries[2].SMAll, "sm_util_high_load")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig9(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var spins int64
		for _, e := range res.Entries {
			spins += e.Spins
		}
		b.ReportMetric(float64(spins), "total_spins")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig10()
		for _, e := range res.Entries {
			if e.Design == "spin" {
				b.ReportMetric(e.Normalized-1, "spin_area_overhead")
			}
		}
	}
}

func BenchmarkCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := exp.Costs()
		b.ReportMetric(c.Rows[0].AreaSave1v3, "mesh_area_save_1v3")
	}
}

// BenchmarkEngineMeshCycles measures raw simulator speed: router-cycles
// per second on a busy 8x8 mesh.
func BenchmarkEngineMeshCycles(b *testing.B) {
	s, err := spin.New(spin.Config{
		Topology:   "mesh:8x8",
		Routing:    "min_adaptive",
		Scheme:     "spin",
		VCsPerVNet: 3,
		Traffic:    "uniform_random",
		Rate:       0.3,
		Seed:       17,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(1000) // warm the network
	b.ResetTimer()
	s.Run(int64(b.N))
	b.ReportMetric(float64(64), "routers")
}

// BenchmarkSpinRecoveryLatency measures the time from deadlock formation
// to resolution for the canonical square ring.
func BenchmarkSpinRecoveryLatency(b *testing.B) {
	total := int64(0)
	runs := 0
	for i := 0; i < b.N; i++ {
		s, err := spin.New(spin.Config{
			Topology:   "mesh:4x4",
			Routing:    "min_adaptive",
			Scheme:     "spin",
			VCsPerVNet: 1,
			Traffic:    "transpose",
			Rate:       0.5,
			Seed:       int64(i + 1),
			TDD:        64,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(4000)
		if sp := s.Spins(); sp > 0 {
			total += sp
			runs++
		}
	}
	if runs > 0 {
		b.ReportMetric(float64(total)/float64(runs), "spins_per_run")
	}
}

// BenchmarkExtensionTorus compares DOR+bubble flow control against
// MinAdaptive+SPIN on a torus (extension experiment).
func BenchmarkExtensionTorus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Torus(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SPIN[0], "spin_lowload_latency")
	}
}

// BenchmarkExtensionDeflection quantifies Table I's deflection row.
func BenchmarkExtensionDeflection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Deflection(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgDeflect[len(res.AvgDeflect)-1], "deflects_per_flit_high_load")
	}
}
