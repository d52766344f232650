// Package exp regenerates every table and figure of the paper's
// evaluation (Section VI). Each Fig*/Table* function runs the relevant
// simulations and returns a structured, printable result; cmd/spinsweep
// and the repository benchmarks are thin wrappers around this package.
//
// The sweeps are embarrassingly parallel — each simulation point is a
// self-contained network instance — so every Fig* function enumerates
// its points as internal/runner jobs. Each point's seed derives from
// Options.Seed and a stable point key (runner.SeedFor), never from sweep
// order, so results are bit-identical at any Options.Workers setting.
//
// Absolute cycle counts default to a fraction of the paper's 100K-cycle
// runs so a full reproduction finishes in minutes; Options.Cycles restores
// the paper's scale. Options.Small swaps the 1024-node dragonfly and 8x8
// mesh for scaled-down instances (useful in CI and benchmarks).
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Options control experiment scale and execution.
type Options struct {
	// Cycles per simulation point (default 20000).
	Cycles int64
	// Warmup cycles before measurement. The rule: zero means "derive" —
	// after Cycles is resolved (whether it was explicit or defaulted),
	// Warmup becomes Cycles/10. A negative value requests a true
	// zero-warmup run; there is no way to express that with 0 because
	// the zero value must keep meaning "use the default".
	Warmup int64
	// Small shrinks topologies: mesh 4x4 and a 256-terminal dragonfly.
	Small bool
	// Seed is the base seed. Each simulation point runs on
	// runner.SeedFor(Seed, pointKey), so two points of one sweep never
	// share a random stream.
	Seed int64
	// Workers bounds concurrently running simulation points (0 =
	// GOMAXPROCS). Worker count never changes results.
	Workers int
	// Timeout bounds each simulation job (0 = unlimited).
	Timeout time.Duration
	// Progress, when non-nil, observes each completed simulation job.
	Progress runner.ProgressFunc
	// Check attaches the runtime invariant checker (internal/sim) to
	// every sweep point; any violation fails that point's job. Fig. 3 is
	// exempt: its whole purpose is to drive schemeless networks into
	// deadlock, which the checker would rightly flag.
	Check bool
	// Telemetry attaches the observability layer to every sweep point:
	// each Point gains a latency-percentile summary and an epoch-windowed
	// time-series. Off by default (and omitted from the JSON encoding when
	// off), so existing encodings are byte-identical.
	Telemetry bool
	// Epoch is the time-series window in cycles (default 100 when
	// Telemetry is on).
	Epoch int64

	// sims is where every point of one sweep gets its Simulation, so that a
	// figure builds shapes x workers networks, not one per job or point.
	// withDefaults makes it: it lives for one Fig*/Sweep call.
	sims *spin.Pool
}

// simShapes is the most network shapes one figure runs over (Fig. 9: mesh
// and dragonfly at 1 and 3 VCs); the pool keeps one of each per worker.
const simShapes = 4

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = 20000
	}
	switch {
	case o.Warmup < 0:
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = o.Cycles / 10
	}
	o.Epoch = harness.TelemetryEpoch(o.Telemetry, o.Epoch)
	if o.sims == nil {
		workers := o.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		o.sims = spin.NewPool(simShapes * workers)
	}
	return o
}

// runnerOpts projects the execution knobs for internal/runner. The last
// progress event of a batch carries what the sweep's pool did so far.
func (o Options) runnerOpts() runner.Options {
	progress := o.Progress
	if progress != nil {
		progress = func(e runner.Event) {
			if e.Done == e.Total {
				builds, rewinds := o.sims.Setups()
				e.Note = fmt.Sprintf("%d points, %d networks built", builds+rewinds, builds)
			}
			o.Progress(e)
		}
	}
	return runner.Options{Workers: o.Workers, Seed: o.Seed, Timeout: o.Timeout, Progress: progress}
}

// meshSpec and dflySpec resolve topology specs under the Small knob.
func (o Options) meshSpec() string {
	if o.Small {
		return "mesh:4x4"
	}
	return "mesh:8x8"
}

func (o Options) dflySpec() string {
	if o.Small {
		// 256 terminals (power of two for the bit permutations), 64 routers.
		return "dragonfly:4,4,4,16"
	}
	return "dragonfly1024"
}

// Point is one (x, y) sample. When the sweep ran with Options.Telemetry
// the point also carries a latency-percentile summary and the windowed
// time-series; both are nil otherwise, so encodings of telemetry-free
// sweeps are unchanged.
type Point struct {
	X, Y    float64
	Latency *sim.LatencySummary `json:",omitempty"`
	TS      *sim.TimeSeries     `json:",omitempty"`
}

// Series is a labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a set of curves with axis labels, printable as aligned text.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as a table: one x column, one column per
// series.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "# y: %s\n", f.YLabel)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xsorted []float64
	for x := range xs {
		xsorted = append(xsorted, x)
	}
	sort.Float64s(xsorted)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %20s", s.Label)
	}
	b.WriteByte('\n')
	lookup := func(s Series, x float64) (float64, bool) {
		for _, p := range s.Points {
			if p.X == x {
				return p.Y, true
			}
		}
		return 0, false
	}
	for _, x := range xsorted {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range f.Series {
			if y, ok := lookup(s, x); ok {
				fmt.Fprintf(&b, " %20.4g", y)
			} else {
				fmt.Fprintf(&b, " %20s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pointKey names one simulation point inside a sweep. The key doubles as
// the point's seed-derivation input, so its format is part of the
// reproducibility contract: "<curve key>@<rate>".
func pointKey(curve string, rate float64) string {
	return fmt.Sprintf("%s@%g", curve, rate)
}

// point completes cfg into the run of the sweep point called key: its seed
// derives from o.Seed and key, its length and warmup are the sweep's.
func (o Options) point(cfg spin.Config, key string) spin.Config {
	cfg.Seed = runner.SeedFor(o.Seed, key)
	cfg.Cycles, cfg.Warmup = o.Cycles, o.Warmup
	return cfg
}

// drive runs one built sweep point of cfg through the shared run driver
// with the sweep's observers attached; a checked point that breaks an
// invariant fails its job. hist forces the latency histogram for points
// that report percentiles even without Options.Telemetry.
func (o Options) drive(ctx context.Context, cfg spin.Config, net *sim.Network, hist bool) (*harness.Result, error) {
	ob := harness.Observe{Check: o.Check, Hist: hist || o.Telemetry}
	if o.Telemetry {
		ob.Window = o.Epoch
	}
	res, err := harness.Drive(ctx, cfg, net, ob)
	if err != nil {
		return nil, err
	}
	if res.Failed() {
		return nil, fmt.Errorf("exp: %s", res.Summary())
	}
	return res, nil
}

// runPoint executes the sweep point called key, cfg (o.point completes it),
// on a Simulation from the sweep's pool and returns the driver's result for
// metric extraction; read, when non-nil, sees the Simulation before it goes
// back (a failed point's does not). The run is advanced in chunks so ctx
// cancellation and per-job timeouts are honoured promptly.
func runPoint(ctx context.Context, cfg spin.Config, key string, o Options, hist bool, read func(*spin.Simulation)) (*harness.Result, error) {
	cfg = o.point(cfg, key)
	s, err := o.sims.Get(cfg)
	if err != nil {
		return nil, err
	}
	res, err := o.drive(ctx, cfg, s.Network(), hist)
	if err != nil {
		return nil, fmt.Errorf("point %s: %w", key, err)
	}
	if read != nil {
		read(s)
	}
	o.sims.Put(s)
	return res, nil
}

// latencyCurve sweeps rates and reports (offered rate, avg latency)
// points, stopping after latency explodes past satLatency (the curve's
// vertical asymptote); the last point is still recorded so the knee
// shows. The early exit makes the sweep inherently sequential, so one
// whole curve is the unit of parallelism (one runner job), with per-point
// seeds still derived from the point keys.
func latencyCurve(ctx context.Context, cfg spin.Config, pattern string, rates []float64, satLatency float64, curveKey string, o Options) (Series, error) {
	var s Series
	cfg.Traffic = pattern
	for _, rate := range rates {
		cfg.Rate = rate
		res, err := runPoint(ctx, cfg, pointKey(curveKey, rate), o, false, nil)
		if err != nil {
			return s, err
		}
		lat := res.Stats.AvgLatency()
		if lat == 0 {
			continue
		}
		s.Points = append(s.Points, Point{X: rate, Y: lat, Latency: res.Latency, TS: res.TimeSeries})
		if lat > satLatency {
			break
		}
	}
	return s, nil
}

// defaultRates returns a geometric-ish sweep up to max.
func defaultRates(max float64) []float64 {
	fracs := []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = f * max
	}
	return out
}
