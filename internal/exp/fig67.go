package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
)

// fig67Config names one curve of a latency-vs-injection plot.
type fig67Config struct {
	label  string
	preset string
	vcs    int
}

// Fig6 reproduces the dragonfly latency-vs-injection-rate curves: the
// commercial UGAL + Dally VC ladder baseline against UGAL with free VC
// use under SPIN (3 VCs), and minimal 1-VC routing against FAvORS-NMin
// (both only possible with SPIN).
func Fig6(ctx context.Context, o Options) (Figures, error) {
	o = o.withDefaults()
	configs := []fig67Config{
		{"UGAL_Dally_3VC", "dfly_ugal_ladder", 3},
		{"UGAL_SPIN_3VC", "dfly_ugal_spin", 3},
		{"Min_SPIN_1VC", "dfly_minimal_spin", 1},
		{"FAvORS_NMin_1VC", "dfly_favors_nmin", 1},
	}
	patterns := []string{"uniform_random", "bit_complement", "transpose", "tornado", "neighbor"}
	return latencyFigures(ctx, "Fig. 6: dragonfly "+o.dflySpec(), "fig6", o.dflySpec(), configs, patterns, defaultRates(0.5), 400, o)
}

// Fig7 reproduces the 8x8 mesh latency-vs-injection-rate curves: the
// west-first, escape-VC and Static Bubble baselines against minimal
// adaptive with SPIN (multi-VC), and west-first vs FAvORS-Min at 1 VC.
func Fig7(ctx context.Context, o Options) (Figures, error) {
	o = o.withDefaults()
	configs := []fig67Config{
		{"WestFirst_3VC", "mesh_westfirst", 3},
		{"EscapeVC_3VC", "mesh_escape_vc", 3},
		{"StaticBubble_3VC", "mesh_static_bubble", 3},
		{"MinAdaptive_SPIN_3VC", "mesh_min_adaptive_spin", 3},
		{"WestFirst_1VC", "mesh_westfirst", 1},
		{"FAvORS_Min_SPIN_1VC", "mesh_favors_min", 1},
	}
	patterns := []string{"uniform_random", "bit_complement", "bit_reverse", "bit_rotation", "transpose", "tornado"}
	return latencyFigures(ctx, "Fig. 7: mesh "+o.meshSpec(), "fig7", o.meshSpec(), configs, patterns, defaultRates(0.6), 300, o)
}

// latencyFigures runs the config × pattern sweep, one Figure per pattern.
// Every (config, pattern) curve is one runner job; the figure is
// assembled from the job results in enumeration order, so the output is
// independent of scheduling.
func latencyFigures(ctx context.Context, title, figKey, topo string, configs []fig67Config, patterns []string, rates []float64, satLat float64, o Options) (Figures, error) {
	type slot struct {
		pattern string
		config  fig67Config
	}
	var slots []slot
	var jobs []runner.Job[Series]
	for _, pat := range patterns {
		for _, c := range configs {
			pat, c := pat, c
			preset, err := spin.PresetByName(c.preset)
			if err != nil {
				return nil, err
			}
			cfg := preset.Config
			cfg.Topology = topo
			cfg.VCsPerVNet = c.vcs
			curveKey := fmt.Sprintf("%s/%s/%s", figKey, c.label, pat)
			slots = append(slots, slot{pattern: pat, config: c})
			jobs = append(jobs, runner.Job[Series]{Key: curveKey, Run: func(ctx context.Context, _ int64) (Series, error) {
				series, err := latencyCurve(ctx, cfg, pat, rates, satLat, curveKey, o)
				if err != nil {
					return Series{}, err
				}
				series.Label = c.label
				return series, nil
			}})
		}
	}
	curves, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	out := make(Figures, len(patterns))
	for _, pat := range patterns {
		out[pat] = &Figure{
			Title:  title + " — " + pat,
			XLabel: "inj_rate",
			YLabel: "avg packet latency (cycles)",
		}
	}
	for i, s := range slots {
		out[s.pattern].Series = append(out[s.pattern].Series, curves[i])
	}
	return out, nil
}

// SaturationSummary extracts the saturation throughput of each config for
// one pattern — the quantity behind the paper's "X% higher throughput"
// claims. The sweep has no early exit, so every (config, rate) point is
// its own parallel job; the per-config maximum is folded afterwards.
func SaturationSummary(ctx context.Context, topo string, configs []string, vcs []int, pattern string, maxRate float64, o Options) (map[string]float64, error) {
	o = o.withDefaults()
	rates := defaultRates(maxRate)
	type satPoint struct {
		Name string
		TP   float64
	}
	var jobs []runner.Job[satPoint]
	for i, name := range configs {
		preset, err := spin.PresetByName(name)
		if err != nil {
			return nil, err
		}
		cfg := preset.Config
		cfg.Topology = topo
		if i < len(vcs) && vcs[i] > 0 {
			cfg.VCsPerVNet = vcs[i]
		}
		curveKey := fmt.Sprintf("sat/%s/%s/%s", topo, name, pattern)
		for _, rate := range rates {
			name, cfg, rate := name, cfg, rate
			key := pointKey(curveKey, rate)
			jobs = append(jobs, runner.Job[satPoint]{Key: key, Run: func(ctx context.Context, _ int64) (satPoint, error) {
				pt := satPoint{Name: name}
				_, err := runPoint(ctx, cfg, pattern, rate, key, o, func(s *spin.Simulation) { pt.TP = s.Throughput() })
				return pt, err
			}})
		}
	}
	points, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, p := range points {
		if tp, ok := out[p.Name]; !ok || p.TP > tp {
			out[p.Name] = p.TP
		}
	}
	return out, nil
}
