package exp

import (
	"context"
	"fmt"
	"strings"

	spin "repro"
	"repro/internal/runner"
	spinimpl "repro/internal/spin"
)

// Fig9Result counts spins and oracle-verified false positives as a
// function of injection rate (Fig. 9), for 1-VC and 3-VC designs on the
// mesh (uniform random) and dragonfly (bit complement).
type Fig9Result struct {
	Entries []Fig9Entry
}

// Fig9Entry is one (topology, VC count, rate) sample.
type Fig9Entry struct {
	Topology       string
	VCs            int
	Rate           float64
	Spins          int64
	FalsePositives int64
	Probes         int64
}

// String renders the result.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("# Fig. 9: spins and false positives vs injection rate\n")
	fmt.Fprintf(&b, "%-12s %4s %8s %10s %14s %10s\n", "topology", "vcs", "rate", "spins", "false_pos", "probes")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-12s %4d %8.3f %10d %14d %10d\n",
			e.Topology, e.VCs, e.Rate, e.Spins, e.FalsePositives, e.Probes)
	}
	return b.String()
}

// Fig9 sweeps injection rates with oracle-backed recovery classification
// enabled, one parallel job per (setup, rate) point.
func Fig9(ctx context.Context, o Options) (*Fig9Result, error) {
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
	var jobs []runner.Job[Fig9Entry]
	for _, su := range setups {
		curveKey := fmt.Sprintf("fig9/%s/%dvc/%s", su.label, su.vcs, su.pattern)
		for _, rate := range rates {
			su, rate := su, rate
			key := pointKey(curveKey, rate)
			jobs = append(jobs, runner.Job[Fig9Entry]{Key: key, Run: func(ctx context.Context, _ int64) (Fig9Entry, error) {
				cfg := spin.Config{
					Topology:   su.topo,
					Routing:    su.routing,
					Scheme:     "spin",
					VNets:      3,
					VCsPerVNet: su.vcs,
					SPIN:       spinimpl.Config{CountTruth: true},
				}
				res, err := runPoint(ctx, cfg, su.pattern, rate, key, o, nil)
				if err != nil {
					return Fig9Entry{}, err
				}
				st := &res.Stats
				return Fig9Entry{
					Topology:       su.label,
					VCs:            su.vcs,
					Rate:           rate,
					Spins:          st.Spins,
					FalsePositives: st.Counter("false_positive_spins"),
					Probes:         st.Counter("probes_sent"),
				}, nil
			}})
		}
	}
	entries, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Entries: entries}, nil
}
