package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	spin "repro"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Fig8aResult holds the PARSEC network-EDP comparison: minimal adaptive
// with 2 VCs under SPIN versus the escape-VC design with 3 VCs,
// normalised to the escape-VC baseline per benchmark (Fig. 8a).
type Fig8aResult struct {
	Entries []Fig8aEntry
}

// Fig8aEntry is one benchmark bar.
type Fig8aEntry struct {
	Benchmark     string
	NormalizedEDP float64 // SPIN-2VC EDP / EscapeVC-3VC EDP
}

// GeoMean reports the geometric mean of the normalised EDPs.
func (r *Fig8aResult) GeoMean() float64 {
	if len(r.Entries) == 0 {
		return 0
	}
	prod := 1.0
	for _, e := range r.Entries {
		prod *= e.NormalizedEDP
	}
	return math.Pow(prod, 1/float64(len(r.Entries)))
}

// String renders the result.
func (r *Fig8aResult) String() string {
	var b strings.Builder
	b.WriteString("# Fig. 8(a): network EDP, MinAdaptive-2VC-SPIN normalised to EscapeVC-3VC\n")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-16s %.3f\n", e.Benchmark, e.NormalizedEDP)
	}
	fmt.Fprintf(&b, "%-16s %.3f\n", "geomean", r.GeoMean())
	return b.String()
}

// Fig8a runs each PARSEC profile through both configurations and combines
// activity counters with the power model into network EDP. Each (app,
// router configuration) run is one parallel job; the per-app ratio is
// folded from the job results in suite order.
func Fig8a(ctx context.Context, o Options) (*Fig8aResult, error) {
	o = o.withDefaults()
	apps := traffic.PARSEC()
	type variant struct {
		name    string
		routing string
		scheme  string
		vcs     int
		pk      power.SchemeKind
	}
	variants := []variant{
		{"spin2vc", "min_adaptive", "spin", 2, power.SchemeSPIN},
		{"escape3vc", "escape_vc", "", 3, power.SchemeEscapeVC},
	}
	var jobs []runner.Job[float64]
	for _, app := range apps {
		for _, v := range variants {
			app, v := app, v
			key := fmt.Sprintf("fig8a/%s/%s", app.Name, v.name)
			jobs = append(jobs, runner.Job[float64]{Key: key, Run: func(ctx context.Context, _ int64) (float64, error) {
				return appEDP(ctx, app, v.routing, v.scheme, v.vcs, v.pk, key, o)
			}})
		}
	}
	edps, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig8aResult{}
	for i, app := range apps {
		spinEDP, escEDP := edps[2*i], edps[2*i+1]
		if escEDP == 0 {
			continue
		}
		res.Entries = append(res.Entries, Fig8aEntry{Benchmark: app.Name, NormalizedEDP: spinEDP / escEDP})
	}
	return res, nil
}

// appEDP runs one application profile on one router configuration, the
// point called key. A PARSEC profile is no traffic a config can name, so the
// point replaces the generator of its traffic-less config by hand.
func appEDP(ctx context.Context, app traffic.AppProfile, routing, scheme string, vcs int, pk power.SchemeKind, key string, o Options) (float64, error) {
	cfg := o.point(spin.Config{
		Topology:   o.meshSpec(),
		Routing:    routing,
		Scheme:     scheme,
		VNets:      3,
		VCsPerVNet: vcs,
	}, key)
	s, err := o.sims.Get(cfg)
	if err != nil {
		return 0, err
	}
	topo := s.Topology()
	s.Network().SetTraffic(&traffic.AppTraffic{Profile: app, Topo: topo})
	res, err := o.drive(ctx, cfg, s.Network(), false)
	if err != nil {
		return 0, err
	}
	o.sims.Put(s)
	st := &res.Stats
	rc := power.MeshRouter(3*vcs, pk)
	rc.NumRouters = topo.NumRouters()
	energy := power.NetworkEnergy(power.Default(), rc,
		st.BufferWrites, st.BufferReads, st.XbarTraversals, st.LinkTraversals, st.MeasuredCycles)
	lat := st.AvgLatency()
	if lat == 0 {
		return 0, fmt.Errorf("exp: %s produced no measured traffic", app.Name)
	}
	return power.EDP(energy, lat), nil
}

// Fig8bResult is the link-utilisation breakdown at three load points
// (Fig. 8b): flits, each SM class, idle.
type Fig8bResult struct {
	Rates   []float64
	Entries []sim.LinkUtilisation
}

// String renders the result.
func (r *Fig8bResult) String() string {
	var b strings.Builder
	b.WriteString("# Fig. 8(b): link utilisation, mesh 3VC MinAdaptive+SPIN, uniform random\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s %8s\n", "rate", "flit", "probe", "move", "pmove", "kill", "idle")
	for i, rate := range r.Rates {
		u := r.Entries[i]
		fmt.Fprintf(&b, "%-8.2f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n",
			rate, u.Flit, u.SM[0], u.SM[1], u.SM[2], u.SM[3], u.Idle)
	}
	return b.String()
}

// Fig8b measures link-cycle usage at low/medium/high load, one parallel
// job per load point.
func Fig8b(ctx context.Context, o Options) (*Fig8bResult, error) {
	o = o.withDefaults()
	res := &Fig8bResult{Rates: []float64{0.01, 0.2, 0.5}}
	var jobs []runner.Job[sim.LinkUtilisation]
	for _, rate := range res.Rates {
		rate := rate
		key := pointKey("fig8b", rate)
		jobs = append(jobs, runner.Job[sim.LinkUtilisation]{Key: key, Run: func(ctx context.Context, _ int64) (sim.LinkUtilisation, error) {
			var u sim.LinkUtilisation
			_, err := runPoint(ctx, spin.Config{
				Topology:   o.meshSpec(),
				Routing:    "min_adaptive",
				Scheme:     "spin",
				Traffic:    "uniform_random",
				Rate:       rate,
				VNets:      3,
				VCsPerVNet: 3,
			}, key, o, false, func(s *spin.Simulation) { u = s.Network().LinkUtilisation() })
			return u, err
		}})
	}
	entries, err := runner.Run(ctx, o.runnerOpts(), jobs)
	if err != nil {
		return nil, err
	}
	res.Entries = entries
	return res, nil
}
