package exp

import (
	"context"
	"encoding/json"
	"testing"
)

// TestWorkloadSweepSaturates checks the closed-loop contract: at the top
// of the sweep the clients are window-limited, so achieved transaction
// throughput falls short of the offered rate while the latency
// percentiles stay finite and ordered — the sweep reports a saturation
// point instead of open-loop divergence.
func TestWorkloadSweepSaturates(t *testing.T) {
	t.Parallel()
	res, err := WorkloadSweep(context.Background(), Options{Cycles: 4000, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty sweep")
	}
	last := res.Points[len(res.Points)-1]
	if last.Achieved <= 0 {
		t.Fatalf("no transactions completed at offered %g", last.Offered)
	}
	if last.Achieved >= last.Offered {
		t.Fatalf("closed loop did not throttle: achieved %g >= offered %g", last.Achieved, last.Offered)
	}
	for _, p := range res.Points {
		if p.P99 < p.P50 {
			t.Fatalf("offered %g: p99 %g below p50 %g", p.Offered, p.P99, p.P50)
		}
		if p.P99 <= 0 || p.AvgLat <= 0 {
			t.Fatalf("offered %g: degenerate latency stats %+v", p.Offered, p)
		}
	}
}

// TestWorkloadSweepDeterministicAcrossWorkers pins the execution-knob
// contract: sweep-level worker parallelism (per-point
// derived seeds, arbitrary completion order) renders the same bytes at 1
// and 8 workers.
func TestWorkloadSweepDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	enc := func(workers int) string {
		res, err := WorkloadSweep(context.Background(), Options{Cycles: 1500, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if one, eight := enc(1), enc(8); one != eight {
		t.Fatalf("workers=8 diverged:\n%s\nvs workers=1:\n%s", eight, one)
	}
}
