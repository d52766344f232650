package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
)

// Torus pits the two deadlock-freedom strategies for a torus against each
// other at equal buffering: dimension-ordered routing under bubble flow
// control (the classic approach) versus fully-adaptive minimal routing
// under SPIN, as average latency per rate. This extends the paper's
// argument to the torus: SPIN needs no injection restriction and no
// routing restriction.
//
// It runs one parallel job per (rate, scheme) point, on the sweep's pool:
// torus_dor under ring_bubble against min_adaptive under SPIN, tornado
// traffic of 5-flit packets.
func Torus(ctx context.Context, o Options) (*Table, error) {
	o = o.withDefaults()
	rates := []float64{0.05, 0.1, 0.2, 0.3}
	var jobs []runner.Job[float64]
	for _, v := range []struct {
		name string
		cfg  spin.Config
	}{
		{"bubble", spin.Config{Topology: "torus:4x4", Routing: "torus_dor", Scheme: "ring_bubble", Traffic: "tornado", DataFrac: 1}},
		{"spin", spin.Config{Topology: "torus:4x4", Routing: "min_adaptive", Scheme: "spin", Traffic: "tornado", DataFrac: 1}},
	} {
		for _, rate := range rates {
			cfg, key := v.cfg, pointKey("torus/"+v.name, rate)
			cfg.Rate = rate
			jobs = append(jobs, runner.Job[float64]{Key: key, Run: func(ctx context.Context, _ int64) (float64, error) {
				pt, err := runPoint(ctx, cfg, key, o, false, nil)
				if err != nil {
					return 0, err
				}
				return pt.Stats.AvgLatency(), nil
			}})
		}
	}
	lats, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Extension: 4x4 torus — DOR+BubbleFC vs MinAdaptive+SPIN (1 VC, avg latency)",
		Columns: []string{"rate", "bubble_fc", "spin"},
	}
	for i, rate := range rates {
		t.Rows = append(t.Rows, Row{Key: []string{fmt.Sprintf("%g", rate)}, Values: []float64{lats[i], lats[len(rates)+i]}})
	}
	return t, nil
}
