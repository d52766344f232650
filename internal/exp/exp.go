// Package exp regenerates every table and figure of the paper's
// evaluation (Section VI). Each Fig*/Table* function runs the relevant
// simulations and returns a printable result: a figure's numbers are
// either latency curves (Figures, Fig. 6/7) or one Table; cmd/spinsweep
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
// the paper's scale. Topologies are scaled down (4x4 mesh, 256-terminal
// dragonfly) unless Options.Full asks for the paper's 8x8 mesh and
// 1024-node dragonfly.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Options is the one description of a figure sweep: the JSON fields are
// the request a client POSTs to /v1/sweep and the shape behind spinsweep's
// flags; the execution knobs after them never change results, so they are
// never encoded and never change the content address. Defaults are decided
// once, in Normalized.
type Options struct {
	// Fig names the sweep: one of SweepIDs(). Sweep takes the figure as an
	// argument, so a Go caller of Sweep or a Fig* function may leave it
	// empty; Validate and the canonical encoding need it.
	Fig string `json:"fig"`
	// Cycles per simulation point (0 = default 20000).
	Cycles int64 `json:"cycles,omitempty"`
	// Warmup cycles before measurement: zero means a tenth of the resolved
	// Cycles, any negative value means none (normalized to -1, since zero
	// must keep meaning "use the default").
	Warmup int64 `json:"warmup,omitempty"`
	// Full selects the paper-scale topologies (8x8 mesh, 1024-node
	// dragonfly); the zero value runs the scaled-down instances (4x4 mesh,
	// a 256-terminal dragonfly).
	Full bool `json:"full,omitempty"`
	// Seed is the base seed. Each simulation point runs on
	// runner.SeedFor(Seed, pointKey), so two points of one sweep never
	// share a random stream.
	Seed int64 `json:"seed"`
	// Check attaches the runtime invariant checker (internal/sim) to
	// every point that steps a network; any violation fails that point's
	// job. Fig. 3 deadlocks on purpose and is exempt; Fig. 10 and the cost
	// table are analytic.
	Check bool `json:"check,omitempty"`
	// Telemetry adds a latency-percentile summary and an epoch-windowed
	// time-series to every point of the result. Off by default (and
	// omitted from the JSON encoding when off).
	Telemetry bool `json:"telemetry,omitempty"`
	// Epoch is the time-series window in cycles (0 = default 100; only
	// meaningful with Telemetry).
	Epoch int64 `json:"epoch,omitempty"`

	// Workers bounds concurrently running simulation points (0 =
	// GOMAXPROCS). Worker count never changes results.
	Workers int `json:"-"`
	// Timeout bounds each simulation job (0 = unlimited).
	Timeout time.Duration `json:"-"`
	// Progress, when non-nil, observes each completed simulation job.
	Progress runner.ProgressFunc `json:"-"`

	// sims is where every point of one sweep gets its Simulation, so that a
	// figure builds shapes x workers networks, not one per job or point.
	// withDefaults makes it: it lives for one Fig*/Sweep call.
	sims *spin.Pool
}

// simShapes is the most network shapes one figure runs over (Fig. 9: mesh
// and dragonfly at 1 and 3 VCs); the pool keeps one of each per worker.
const simShapes = 4

// withDefaults normalizes o and gives it the sweep's pool.
func (o Options) withDefaults() Options {
	o = o.Normalized()
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

// meshSpec and dflySpec resolve topology specs under the Full knob.
func (o Options) meshSpec() string {
	if o.Full {
		return "mesh:8x8"
	}
	return "mesh:4x4"
}

func (o Options) dflySpec() string {
	if o.Full {
		return "dragonfly1024"
	}
	// 256 terminals (power of two for the bit permutations), 64 routers.
	return "dragonfly:4,4,4,16"
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

// Table is the one shape of every figure that is not a latency curve:
// rows of measurements named by their sweep coordinates. The first
// len(Key) Columns name a row's Key cells (numeric coordinates written
// with %g, as pointKey writes them); the rest name its Values.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one sweep point of a Table.
type Row struct {
	Key    []string
	Values []float64
}

// Column returns the values of the named measurement column, one per row
// (nil when no measurement column has that name).
func (t *Table) Column(name string) []float64 {
	i := slices.Index(t.Columns, name)
	if i < 0 {
		return nil
	}
	var out []float64
	for _, r := range t.Rows {
		if i < len(r.Key) {
			return nil
		}
		out = append(out, r.Values[i-len(r.Key)])
	}
	return out
}

// String renders the table: the title, a header, then one line per row,
// key cells left-aligned and values (%.4g) right-aligned in columns as
// wide as their widest cell.
func (t *Table) String() string {
	lines := [][]string{t.Columns}
	for _, r := range t.Rows {
		line := slices.Clone(r.Key)
		for _, v := range r.Values {
			line = append(line, fmt.Sprintf("%.4g", v))
		}
		lines = append(lines, line)
	}
	width := make([]int, len(t.Columns))
	for _, line := range lines {
		for i, c := range line {
			width[i] = max(width[i], len(c))
		}
	}
	keys := 0
	if len(t.Rows) > 0 {
		keys = len(t.Rows[0].Key)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	for _, line := range lines {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < keys {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], c)
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
// derives from o.Seed and key, its length and warmup are the sweep's (a
// normalized "no warmup", -1, is a run's 0).
func (o Options) point(cfg spin.Config, key string) spin.Config {
	cfg.Seed = runner.SeedFor(o.Seed, key)
	cfg.Cycles, cfg.Warmup = o.Cycles, max(o.Warmup, 0)
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
