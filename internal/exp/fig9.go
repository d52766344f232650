package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
)

// Fig9 counts spins and oracle-verified false positives as a function of
// injection rate (Fig. 9), for 1-VC and 3-VC designs on the mesh (uniform
// random) and dragonfly (bit complement). It sweeps injection rates with
// oracle-backed recovery classification enabled, one parallel job per
// (setup, rate) point.
func Fig9(ctx context.Context, o Options) (*Table, error) {
	o = o.withDefaults()
	type setup struct {
		label, topo, routing, pattern string
		vcs                           int
	}
	setups := []setup{
		{"mesh", o.meshSpec(), "min_adaptive", "uniform_random", 1},
		{"mesh", o.meshSpec(), "min_adaptive", "uniform_random", 3},
		{"dragonfly", o.dflySpec(), "dfly_min", "bit_complement", 1},
		{"dragonfly", o.dflySpec(), "dfly_min", "bit_complement", 3},
	}
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	var jobs []runner.Job[Row]
	for _, su := range setups {
		curveKey := fmt.Sprintf("fig9/%s/%dvc/%s", su.label, su.vcs, su.pattern)
		for _, rate := range rates {
			su, rate := su, rate
			key := pointKey(curveKey, rate)
			jobs = append(jobs, runner.Job[Row]{Key: key, Run: func(ctx context.Context, _ int64) (Row, error) {
				res, err := runPoint(ctx, spin.Config{
					Topology:   su.topo,
					Routing:    su.routing,
					Scheme:     "spin",
					Traffic:    su.pattern,
					Rate:       rate,
					VNets:      3,
					VCsPerVNet: su.vcs,
					CountTruth: true,
				}, key, o, false, nil)
				if err != nil {
					return Row{}, err
				}
				st := &res.Stats
				return Row{
					Key:    []string{su.label, fmt.Sprint(su.vcs), fmt.Sprintf("%g", rate)},
					Values: []float64{float64(st.Spins), float64(st.Counter("false_positive_spins")), float64(st.Counter("probes_sent"))},
				}, nil
			}})
		}
	}
	rows, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Fig. 9: spins and false positives vs injection rate",
		Columns: []string{"topology", "vcs", "rate", "spins", "false_positives", "probes"},
		Rows:    rows,
	}, nil
}
