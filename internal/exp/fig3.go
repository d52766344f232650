package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
)

// Fig3 reports, per topology and traffic pattern, the minimum injection
// rate (flits/node/cycle) at which the network deadlocks at least once
// within the cycle budget — the paper's demonstration that routing
// deadlocks are rare events (Fig. 3). A zero means no deadlock was
// observed even at rate 1.0 (the paper sees this for mesh
// tornado/transpose-like patterns).
//
// It searches per pattern for the deadlock onset rate on the mesh
// (fully-adaptive minimal, 3 VCs, no recovery) and the dragonfly (UGAL
// with free VC use, 3 VCs, no recovery), using the global wait-for-graph
// oracle as the deadlock detector. 1-flit packets, as in the paper. Each
// (topology, pattern) onset search is one parallel job; the rate search
// inside a job stays sequential because it stops at the first deadlock.
func Fig3(ctx context.Context, o Options) (*Table, error) {
	o = o.withDefaults()
	type setup struct {
		label, topo, routing string
		patterns             []string
	}
	setups := []setup{
		{"mesh", o.meshSpec(), "min_adaptive",
			[]string{"uniform_random", "bit_complement", "bit_reverse", "transpose", "tornado", "shuffle"}},
		{"dragonfly", o.dflySpec(), "ugal_spin", // free-VC UGAL, scheme disabled below
			[]string{"uniform_random", "bit_complement", "transpose", "tornado", "neighbor"}},
	}
	rates := []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}
	var jobs []runner.Job[Row]
	for _, su := range setups {
		for _, pat := range su.patterns {
			su, pat := su, pat
			key := "fig3/" + su.label + "/" + pat
			jobs = append(jobs, runner.Job[Row]{Key: key, Run: func(ctx context.Context, _ int64) (Row, error) {
				min := 0.0
				for _, rate := range rates {
					dl, err := deadlocksAt(ctx, su.topo, su.routing, pat, pointKey(key, rate), rate, o)
					if err != nil {
						return Row{}, err
					}
					if dl {
						min = rate
						break
					}
				}
				return Row{Key: []string{su.label, pat}, Values: []float64{min}}, nil
			}})
		}
	}
	rows, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   fmt.Sprintf("Fig. 3: minimum injection rate (flits/node/cycle) causing a deadlock within %d cycles (0 = none)", o.Cycles),
		Columns: []string{"topology", "pattern", "min_deadlock_rate"},
		Rows:    rows,
	}, nil
}

// deadlocksAt runs one point with no recovery scheme on a Simulation from
// the sweep's pool (it goes back deadlocked or not: Reset forgets either)
// and polls the oracle, stopping at the first deadlock. It is the one
// point that steps itself instead of going through runPoint's driver,
// because harness.Drive cannot stop at the first deadlock: a fold onto
// runPoint that read the oracle once at the end of the run printed the
// same figure but took 31% longer on a 2-CPU machine at 2 workers (median
// 12.0 to 15.7 s at the scaled sizes, 68.9 to 95.3 s at -full).
func deadlocksAt(ctx context.Context, topo, routing, pattern, key string, rate float64, o Options) (bool, error) {
	s, err := o.sims.Get(o.point(spin.Config{
		Topology:   topo,
		Routing:    routing,
		Traffic:    pattern,
		Rate:       rate,
		VCsPerVNet: 3,
		DataFrac:   0.001, // 1-flit packets as in the paper's Fig. 3
	}, key))
	if err != nil {
		return false, err
	}
	deadlocked, err := pollDeadlock(ctx, s, o.Cycles)
	if err != nil {
		return false, err
	}
	o.sims.Put(s)
	return deadlocked, nil
}

// pollDeadlock steps s for at most cycles cycles, consulting the oracle
// every 500 and after the last, shorter poll, and reports whether it saw
// a deadlock.
func pollDeadlock(ctx context.Context, s *spin.Simulation, cycles int64) (bool, error) {
	const pollEvery = 500
	for done := int64(0); done < cycles; done += pollEvery {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		s.Run(min(pollEvery, cycles-done))
		if s.Deadlocked() {
			return true, nil
		}
	}
	return false, nil
}
