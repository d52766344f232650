package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

// This file is the sweep rung of the bench package: what one point of a
// figure costs around its cycles. The figure is benchmark/'s sweep_fig7 —
// Fig. 7 at full size, 100 cycles a point, 2 workers: 36 curves of 8 points
// over two network shapes — so the cycles are few and the set-up shows. The
// row lives in BENCH_sim.json's sweep block beside the same figure measured
// at the parent of the commit that last changed what a point pays for.

// sweepPass regenerates the figure once and reports its points and, from the
// closing progress line, the networks it built.
func sweepPass(tb testing.TB) (points, builds int) {
	o := exp.Options{Cycles: 100, Full: true, Seed: 17, Workers: 2, Progress: func(e runner.Event) {
		if e.Note != "" {
			if _, err := fmt.Sscanf(e.Note, "%d points, %d networks built", &points, &builds); err != nil {
				tb.Fatalf("closing line %q: %v", e.Note, err)
			}
		}
	}}
	if _, err := exp.Sweep(context.Background(), "7", o); err != nil {
		tb.Fatal(err)
	}
	return points, builds
}

// measureSweep is the sweep block: best ns per point of reps passes, heap
// bytes and objects per point and networks built of the first (every pass
// has its own pool, so every pass is the same work).
func measureSweep(tb testing.TB, reps int) (res SweepResult) {
	sweepPass(tb) // routing tables, lazy binds
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		points, builds := sweepPass(tb)
		ns := float64(time.Since(start).Nanoseconds()) / float64(points)
		runtime.ReadMemStats(&after)
		if rep == 0 {
			res = SweepResult{Name: "fig7/100", Points: points, Builds: builds,
				Cost: Cost{ns, float64(after.TotalAlloc-before.TotalAlloc) / float64(points), float64(after.Mallocs-before.Mallocs) / float64(points)}}
		}
		res.Ns = min(res.Ns, ns)
	}
	return res
}

// checkSweep is TestBenchRegression's sweep block: points and networks built
// are exact, bytes and objects per point compare directly (10 %: which worker
// meets which shape first moves a build or two's worth of buffer growth), ns
// through the calibration ratio under the advisory-unless-BENCH_STRICT rule.
func checkSweep(t *testing.T, got, want SweepResult, scale float64, strict bool) {
	limit := want.Ns * scale * 1.25
	t.Logf("%-13s %8.0f ns/point (limit %8.0f) %7.0f B %5.0f objects, %d networks for %d points (before: %.0f ns, %.0f B, %.0f objects, %d networks)",
		got.Name, got.Ns, limit, got.Bytes, got.Objects, got.Builds, got.Points, want.Before.Ns, want.Before.Bytes, want.Before.Objects, want.BeforeBuilds)
	if got.Points != want.Points || got.Builds > want.Builds {
		t.Errorf("%s: %d networks built for %d points, baseline %d for %d", got.Name, got.Builds, got.Points, want.Builds, want.Points)
	}
	if got.Bytes > want.Bytes*1.10 || got.Objects > want.Objects*1.10 {
		t.Errorf("%s: %.0f B in %.0f objects per point exceeds baseline %.0f in %.0f", got.Name, got.Bytes, got.Objects, want.Bytes, want.Objects)
	}
	if got.Ns > limit && strict {
		t.Errorf("%s: %.0f ns per point exceeds %.0f (baseline %.0f x calibration %.2f x 1.25)", got.Name, got.Ns, limit, want.Ns, scale)
	}
}

// sweepAllocBudget is the ceiling on heap bytes per point of the figure
// above. The parent of the commit that pooled simulations across jobs spent
// 166 KB (a network built for every curve, and every packet allocated again
// after a rewind); this tree spends ≈ 40 KB.
const sweepAllocBudget = 64 << 10

// TestSweepAllocBudget pins what a point pays around its cycles: above
// 100 KB jobs are building networks again, above 60 KB a rewound network is
// allocating its packets again.
func TestSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	res := measureSweep(t, 1)
	t.Logf("%d points, %d networks built: %.0f B in %.0f objects per point", res.Points, res.Builds, res.Bytes, res.Objects)
	if res.Bytes > sweepAllocBudget {
		t.Errorf("a Fig. 7 point allocates %.0f B, budget %d", res.Bytes, sweepAllocBudget)
	}
	if res.Builds > 4 {
		t.Errorf("the figure built %d networks, want at most 2 shapes x 2 workers", res.Builds)
	}
}

// BenchmarkSweep exposes the sweep block to `go test -bench`: one figure per
// iteration.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweepPass(b)
	}
}
