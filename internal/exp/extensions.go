package exp

import (
	"context"
	"fmt"
	"math/rand"

	spin "repro"
	"repro/internal/deflection"
	"repro/internal/runner"
	"repro/internal/topology"
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

// Deflection contrasts BLESS-style deflection with buffered XY routing on
// a mesh: deflection's zero-load latency is competitive but its delivered
// latency degrades with load as misroutes accumulate — Table I's
// qualitative "high livelock cost / lower saturation" row, made
// quantitative. Per rate it reports the average flit latency of the
// bufferless network, the average packet latency of the buffered one
// (1-flit packets), and deflections per delivered flit.
//
// It runs one parallel job per rate point (the bufferless and buffered
// runs of a rate share a job because they feed one row).
func Deflection(ctx context.Context, o Options) (*Table, error) {
	o = o.withDefaults()
	var jobs []runner.Job[Row]
	for _, rate := range []float64{0.05, 0.15, 0.3, 0.45} {
		rate := rate
		key := pointKey("deflection", rate)
		jobs = append(jobs, runner.Job[Row]{Key: key, Run: func(ctx context.Context, seed int64) (Row, error) {
			vals, err := deflectionPoint(ctx, rate, key, seed, o)
			return Row{Key: []string{fmt.Sprintf("%g", rate)}, Values: vals}, err
		}})
	}
	rows, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Extension: 4x4 mesh — deflection (bufferless) vs buffered XY (1-flit packets)",
		Columns: []string{"rate", "deflection", "buffered_xy", "deflects_per_flit"},
		Rows:    rows,
	}, nil
}

// deflectionPoint runs the bufferless and buffered networks at one rate, the
// point called key (seed derives from it), and returns the row's values.
func deflectionPoint(ctx context.Context, rate float64, key string, seed int64, o Options) ([]float64, error) {
	mesh, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		return nil, err
	}
	// Bufferless run.
	dn := deflection.New(mesh, seed)
	dn.StatsStart = max(o.Warmup, 0)
	rng := rand.New(rand.NewSource(seed))
	stepAll := func(n int64) {
		for i := int64(0); i < n; i++ {
			for src := 0; src < 16; src++ {
				if rng.Float64() < rate {
					dst := rng.Intn(16)
					if dst != src {
						dn.Inject(src, dst)
					}
				}
			}
			dn.Step()
		}
	}
	if err := runner.Cycles(ctx, stepAll, o.Cycles); err != nil {
		return nil, err
	}
	deflects := 0.0
	if dn.EjectedMeasured > 0 {
		deflects = float64(dn.DeflectionSum) / float64(dn.Ejected)
	}
	// Buffered XY with 1-flit packets for apples-to-apples.
	res, err := runPoint(ctx, spin.Config{Topology: "mesh:4x4", Routing: "xy", Traffic: "uniform_random", Rate: rate, DataFrac: 0.0001}, key, o, false, nil)
	if err != nil {
		return nil, err
	}
	return []float64{dn.AvgLatency(), res.Stats.AvgLatency(), deflects}, nil
}
