package bench

import (
	"context"
	"fmt"
	"testing"

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

// measureSweep is the sweep block: the figure, once per round, after one
// pass that binds what is bound once; points and networks built of the
// last round (every pass has its own pool, so every pass is the same work).
func measureSweep(tb testing.TB, rounds int) SweepResult {
	sweepPass(tb) // routing tables, lazy binds
	res := SweepResult{Name: "fig7/100"}
	samples, _ := measure(rounds, []op{{run: func() (float64, error) { // a pass fails the test, not the op
		res.Points, res.Builds = sweepPass(tb)
		return float64(res.Points), nil
	}}})
	res.Cost = samples[0].Cost
	return res
}

// sweepAllocBudget is the ceiling on heap bytes per point of the figure
// above. The parent of the commit that pooled simulations across jobs spent
// 166 KB (a network built for every curve, and every packet allocated again
// after a rewind); the parent of the commit that recycled scheme agents
// across a rewind spent ≈ 39 KB (a SPIN or Static Bubble agent per router per
// point); this tree spends ≈ 22 KB.
const sweepAllocBudget = 32 << 10

// TestSweepAllocBudget pins what a point pays around its cycles: above
// 100 KB jobs are building networks again, above 60 KB a rewound network is
// allocating its packets again, above 32 KB it is building its scheme's
// agents again.
func TestSweepAllocBudget(t *testing.T) {
	skipUnderRace(t)
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
