package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bubble"
	"repro/internal/deflection"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TorusComparison pits the two deadlock-freedom strategies for a torus
// against each other at equal buffering: dimension-ordered routing under
// bubble flow control (the classic approach) versus fully-adaptive
// minimal routing under SPIN. This extends the paper's argument to the
// torus: SPIN needs no injection restriction and no routing restriction.
type TorusComparison struct {
	Rates  []float64
	Bubble []float64 // avg latency per rate
	SPIN   []float64
}

// String renders the comparison.
func (c *TorusComparison) String() string {
	var b strings.Builder
	b.WriteString("# Extension: 4x4 torus — DOR+BubbleFC vs MinAdaptive+SPIN (1 VC, avg latency)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s\n", "rate", "bubble_fc", "spin")
	for i, r := range c.Rates {
		fmt.Fprintf(&b, "%-8.2f %14.1f %14.1f\n", r, c.Bubble[i], c.SPIN[i])
	}
	return b.String()
}

// Torus runs the comparison, one parallel job per (rate, scheme) point.
// Each job builds its own torus instance so no topology state is shared
// across goroutines.
func Torus(ctx context.Context, o Options) (*TorusComparison, error) {
	o = o.withDefaults()
	res := &TorusComparison{Rates: []float64{0.05, 0.1, 0.2, 0.3}}
	var jobs []runner.Job[float64]
	for _, variant := range []string{"bubble", "spin"} {
		for _, rate := range res.Rates {
			variant, rate := variant, rate
			key := pointKey("torus/"+variant, rate)
			jobs = append(jobs, runner.Job[float64]{Key: key, Run: func(ctx context.Context, seed int64) (float64, error) {
				torus, err := topology.NewTorus(4, 4, 1)
				if err != nil {
					return 0, err
				}
				return torusPoint(ctx, torus, rate, variant == "bubble", seed, o)
			}})
		}
	}
	lats, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	res.Bubble = lats[:len(res.Rates)]
	res.SPIN = lats[len(res.Rates):]
	return res, nil
}

func torusPoint(ctx context.Context, torus *topology.Mesh, rate float64, useBubble bool, seed int64, o Options) (float64, error) {
	cfg := sim.Config{
		Topology:   torus,
		VCsPerVNet: 1,
		Seed:       seed,
		StatsStart: o.Warmup,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Tornado(torus), Rate: rate, DataFrac: 1},
	}
	// The hand-built routing objects have no spec string; the driver
	// needs the scenario only for its length and, through Scheme, the
	// checker's recovery bound.
	sc := harness.Scenario{Topology: "torus:4x4", Scheme: "ring_bubble", Seed: seed, Cycles: o.Cycles}
	if useBubble {
		cfg.Routing = &torusDOR{m: torus}
		cfg.Scheme = &bubble.RingBubble{Mesh: torus}
	} else {
		cfg.Routing = &routing.MinAdaptive{Topo: torus}
		cfg.Scheme = spinScheme()
		sc.Scheme = "spin"
	}
	n, err := sim.NewNetwork(cfg)
	if err != nil {
		return 0, err
	}
	res, err := o.drive(ctx, sc, n, false)
	if err != nil {
		return 0, err
	}
	return res.Stats.AvgLatency(), nil
}

// DeflectionComparison contrasts BLESS-style deflection with buffered XY
// routing on a mesh: deflection's zero-load latency is competitive but
// its delivered latency degrades with load as misroutes accumulate —
// Table I's qualitative "high livelock cost / lower saturation" row, made
// quantitative.
type DeflectionComparison struct {
	Rates      []float64
	Deflection []float64 // avg flit latency
	Buffered   []float64 // avg packet latency (1-flit packets)
	AvgDeflect []float64 // deflections per delivered flit
}

// String renders the comparison.
func (c *DeflectionComparison) String() string {
	var b strings.Builder
	b.WriteString("# Extension: 4x4 mesh — deflection (bufferless) vs buffered XY (1-flit packets)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %14s\n", "rate", "deflection", "buffered_xy", "deflects/flit")
	for i, r := range c.Rates {
		fmt.Fprintf(&b, "%-8.2f %12.1f %12.1f %14.2f\n", r, c.Deflection[i], c.Buffered[i], c.AvgDeflect[i])
	}
	return b.String()
}

// deflectionSample is one rate point of the comparison.
type deflectionSample struct {
	Deflection float64
	Buffered   float64
	AvgDeflect float64
}

// Deflection runs the comparison, one parallel job per rate point (the
// bufferless and buffered runs of a rate share a job because they feed
// one output row).
func Deflection(ctx context.Context, o Options) (*DeflectionComparison, error) {
	o = o.withDefaults()
	res := &DeflectionComparison{Rates: []float64{0.05, 0.15, 0.3, 0.45}}
	var jobs []runner.Job[deflectionSample]
	for _, rate := range res.Rates {
		rate := rate
		key := pointKey("deflection", rate)
		jobs = append(jobs, runner.Job[deflectionSample]{Key: key, Run: func(ctx context.Context, seed int64) (deflectionSample, error) {
			return deflectionPoint(ctx, rate, seed, o)
		}})
	}
	samples, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		res.Deflection = append(res.Deflection, s.Deflection)
		res.Buffered = append(res.Buffered, s.Buffered)
		res.AvgDeflect = append(res.AvgDeflect, s.AvgDeflect)
	}
	return res, nil
}

// deflectionPoint runs the bufferless and buffered networks at one rate.
func deflectionPoint(ctx context.Context, rate float64, seed int64, o Options) (deflectionSample, error) {
	var out deflectionSample
	mesh, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		return out, err
	}
	// Bufferless run.
	dn := deflection.New(mesh, seed)
	dn.StatsStart = o.Warmup
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
		return out, err
	}
	out.Deflection = dn.AvgLatency()
	if dn.EjectedMeasured > 0 {
		out.AvgDeflect = float64(dn.DeflectionSum) / float64(dn.Ejected)
	}
	// Buffered XY with 1-flit packets for apples-to-apples.
	bn, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    &routing.XY{Mesh: mesh},
		VCsPerVNet: 1,
		Seed:       seed,
		StatsStart: o.Warmup,
		Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(16), Rate: rate, DataFrac: 0.0001},
	})
	if err != nil {
		return out, err
	}
	res, err := o.drive(ctx, harness.Scenario{Topology: "mesh:4x4", Routing: "xy", Seed: seed, Cycles: o.Cycles}, bn, false)
	if err != nil {
		return out, err
	}
	out.Buffered = res.Stats.AvgLatency()
	return out, nil
}

// torusDOR is shortest-direction dimension-ordered torus routing (shared
// with the bubble tests).
type torusDOR struct {
	sim.BaseRouting
	m *topology.Mesh
}

func (t *torusDOR) Name() string { return "torus_dor" }

// Route implements sim.RoutingAlgorithm.
func (t *torusDOR) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	cx, cy := t.m.Coords(r.ID)
	dx, dy := t.m.Coords(p.RouteDst())
	var port int
	switch {
	case cx != dx:
		east := ((dx - cx) + t.m.X) % t.m.X
		if east <= t.m.X-east {
			port = topology.MeshPort(topology.East)
		} else {
			port = topology.MeshPort(topology.West)
		}
	default:
		north := ((dy - cy) + t.m.Y) % t.m.Y
		if north <= t.m.Y-north {
			port = topology.MeshPort(topology.North)
		} else {
			port = topology.MeshPort(topology.South)
		}
	}
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
}
