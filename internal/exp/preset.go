package exp

import (
	"context"
	"fmt"

	spin "repro"
	"repro/internal/runner"
)

// PresetSweep runs the latency-vs-offered-load curve of one named
// Table III preset under a chosen synthetic pattern — the by-name entry
// point behind `spinsweep -preset`, and the convenient way to drive the
// large-scale presets (dfly1024, mesh64x64) without defining a whole
// figure around them. The curve runs as one
// runner job so -timeout, -progress, and Ctrl-C behave exactly as in
// the figure sweeps, and per-point seeds derive from the same
// "preset/<name>/<pattern>@<rate>" key scheme.
func PresetSweep(ctx context.Context, name, pattern string, maxRate float64, o Options) (*Figure, error) {
	o = o.withDefaults()
	p, err := spin.PresetByName(name)
	if err != nil {
		return nil, err
	}
	if pattern == "" {
		pattern = "uniform_random"
	}
	if maxRate == 0 {
		maxRate = 0.6
	}
	curveKey := fmt.Sprintf("preset/%s/%s", name, pattern)
	job := runner.Job[Series]{Key: curveKey, Run: func(ctx context.Context, _ int64) (Series, error) {
		s, err := latencyCurve(ctx, p.Config, pattern, defaultRates(maxRate), 400, curveKey, o)
		if err != nil {
			return Series{}, err
		}
		s.Label = name
		return s, nil
	}}
	curves, err := runner.Run(ctx, o.runnerOpts(), []runner.Job[Series]{job})
	if err != nil {
		return nil, err
	}
	return &Figure{
		Title:  "Preset " + name + " — " + pattern,
		XLabel: "inj_rate",
		YLabel: "avg packet latency (cycles)",
		Series: curves,
	}, nil
}
