package exp

import (
	"context"
	"fmt"
	"strings"

	spin "repro"
	"repro/internal/runner"
	"repro/internal/workload"
)

// WorkloadSweepResult is the closed-loop saturation sweep: finite-window
// request/response clients on the mesh under MinAdaptive+SPIN, sweeping
// offered request rate. Unlike the open-loop figures, the clients
// self-throttle at saturation, so the sweep reports *achieved*
// transaction throughput next to the offered rate — the gap between the
// two columns is the saturation headroom, and the latency percentiles
// stay finite instead of diverging.
type WorkloadSweepResult struct {
	Topology string          `json:"topology"`
	Window   int             `json:"window"`
	Points   []WorkloadPoint `json:"points"`
}

// WorkloadPoint is one offered-rate sample of the closed-loop sweep.
type WorkloadPoint struct {
	// Offered is the request injection rate the clients attempt
	// (request flits/terminal/cycle when a window slot is free).
	Offered float64 `json:"offered"`
	// Achieved is the completed-transaction rate
	// (requests retired by a reply, per terminal per cycle).
	Achieved float64 `json:"achieved"`
	// AvgLat is the mean packet latency in cycles (requests and replies).
	AvgLat float64 `json:"avg_latency"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// String renders the sweep as an aligned table.
func (r *WorkloadSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Extension: %s closed-loop clients (W=%d) — offered vs achieved\n", r.Topology, r.Window)
	fmt.Fprintf(&b, "%-10s %10s %12s %10s %10s\n", "offered", "achieved", "avg_latency", "p50", "p99")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.3f %10.3f %12.1f %10.1f %10.1f\n", p.Offered, p.Achieved, p.AvgLat, p.P50, p.P99)
	}
	return b.String()
}

// workloadWindow is the per-terminal outstanding-request limit the sweep
// runs with — large enough to keep the network busy at saturation, small
// enough that the closed loop visibly throttles.
const workloadWindow = 8

// WorkloadSweep runs the closed-loop saturation sweep, one parallel job
// per offered-rate point. Each point is a harness scenario, so the same
// configuration is reachable via /v1/simulate with an identical
// workload block, and byte-identical results.
func WorkloadSweep(ctx context.Context, o Options) (*WorkloadSweepResult, error) {
	o = o.withDefaults()
	res := &WorkloadSweepResult{Topology: o.meshSpec(), Window: workloadWindow}
	var jobs []runner.Job[WorkloadPoint]
	for _, rate := range defaultRates(0.6) {
		rate := rate
		key := pointKey("workload/closed", rate)
		jobs = append(jobs, runner.Job[WorkloadPoint]{Key: key, Run: func(ctx context.Context, _ int64) (WorkloadPoint, error) {
			return workloadPoint(ctx, rate, key, o)
		}})
	}
	pts, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	res.Points = pts
	return res, nil
}

// workloadPoint runs one offered-rate point, the point called key.
// Requests and replies are both single-flit, so offered and achieved are
// directly comparable.
func workloadPoint(ctx context.Context, rate float64, key string, o Options) (WorkloadPoint, error) {
	pt := WorkloadPoint{Offered: rate}
	var completed, terminals int64
	res, err := runPoint(ctx, spin.Config{
		Topology:   o.meshSpec(),
		Routing:    "min_adaptive",
		Scheme:     "spin",
		Traffic:    "uniform_random",
		Rate:       rate,
		VNets:      2,
		VCsPerVNet: 2,
		Workload:   &workload.Spec{Mode: "closed", Window: workloadWindow, ReqLen: 1, RespLen: 1},
	}, key, o, true, func(s *spin.Simulation) {
		completed = s.Network().Config().Traffic.(*workload.ClosedLoop).Completed()
		terminals = int64(s.Topology().NumTerminals())
	})
	if err != nil {
		return pt, err
	}
	pt.Achieved = float64(completed) / float64(o.Cycles) / float64(terminals)
	pt.AvgLat = res.Stats.AvgLatency()
	pt.P50, pt.P99 = res.Latency.P50, res.Latency.P99
	return pt, nil
}
