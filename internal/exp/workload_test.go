package exp

import (
	"context"
	"encoding/json"
	"strconv"
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
	if len(res.Rows) == 0 {
		t.Fatal("empty sweep")
	}
	achieved, avg := res.Column("achieved"), res.Column("avg_latency")
	p50, p99 := res.Column("p50"), res.Column("p99")
	n := len(res.Rows) - 1
	offered, err := strconv.ParseFloat(res.Rows[n].Key[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if achieved[n] <= 0 {
		t.Fatalf("no transactions completed at offered %g", offered)
	}
	if achieved[n] >= offered {
		t.Fatalf("closed loop did not throttle: achieved %g >= offered %g", achieved[n], offered)
	}
	for i, r := range res.Rows {
		if p99[i] < p50[i] {
			t.Fatalf("offered %s: p99 %g below p50 %g", r.Key[0], p99[i], p50[i])
		}
		if p99[i] <= 0 || avg[i] <= 0 {
			t.Fatalf("offered %s: degenerate latency stats %v", r.Key[0], r.Values)
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
