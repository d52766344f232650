package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
	"repro/internal/workload"
)

// workloadWindow is the per-terminal outstanding-request limit the sweep
// runs with — large enough to keep the network busy at saturation, small
// enough that the closed loop visibly throttles.
const workloadWindow = 8

// WorkloadSweep is the closed-loop saturation sweep: finite-window
// request/response clients on the mesh under MinAdaptive+SPIN, sweeping
// offered request rate. Unlike the open-loop figures, the clients
// self-throttle at saturation, so the sweep reports *achieved*
// transaction throughput next to the offered rate — the gap between the
// two columns is the saturation headroom, and the latency percentiles
// stay finite instead of diverging.
//
// It runs one parallel job per offered-rate point. Each point is a harness
// scenario, so the same configuration is reachable via /v1/simulate with
// an identical workload block, and byte-identical results.
func WorkloadSweep(ctx context.Context, o Options) (*Table, error) {
	o = o.withDefaults()
	var jobs []runner.Job[Row]
	for _, rate := range defaultRates(0.6) {
		rate := rate
		key := pointKey("workload/closed", rate)
		jobs = append(jobs, runner.Job[Row]{Key: key, Run: func(ctx context.Context, _ int64) (Row, error) {
			vals, err := workloadPoint(ctx, rate, key, o)
			return Row{Key: []string{fmt.Sprintf("%g", rate)}, Values: vals}, err
		}})
	}
	rows, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   fmt.Sprintf("Extension: %s closed-loop clients (W=%d) — offered vs achieved", o.meshSpec(), workloadWindow),
		Columns: []string{"offered", "achieved", "avg_latency", "p50", "p99"},
		Rows:    rows,
	}, nil
}

// workloadPoint runs one offered-rate point, the point called key, and
// returns its achieved completed-transaction rate (requests retired by a
// reply, per terminal per cycle), its mean packet latency in cycles
// (requests and replies) and its p50 and p99. Requests and replies are
// both single-flit, so offered and achieved are directly comparable.
func workloadPoint(ctx context.Context, rate float64, key string, o Options) ([]float64, error) {
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
		return nil, err
	}
	achieved := float64(completed) / float64(o.Cycles) / float64(terminals)
	return []float64{achieved, res.Stats.AvgLatency(), res.Latency.P50, res.Latency.P99}, nil
}
