package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// checkedWorkloads are the rows measured under the invariant checker,
// attached with the options harness.Drive derives. They live in the test
// file because only harness.Drive and tests may attach one
// (TestOneRunDriver).
func checkedWorkloads() []Workload {
	var ws []Workload
	for _, w := range Workloads() {
		if w.Name == "mesh8x8/sat" || w.Name == "torus8x8/spin1vc" {
			sc := harness.Scenario{Scheme: w.Cfg.Scheme, TDD: w.Cfg.TDD}
			w.Name += CheckSuffix
			w.Attach = func(n *sim.Network) func() error {
				return n.AttachChecker(sc.CheckOptions(n.NumRouters())).Err
			}
			ws = append(ws, w)
		}
	}
	return ws
}

// update rewrites a baseline from one session's measurements. The heap
// fields of code that allocates the same are not exact between sessions:
// the runtime's post-GC background work allocates in whichever window is
// open, and hash-seeded maps grow by 16 B more or less. In twelve sessions
// of two trees that allocate alike, a step row moved by at most one object
// and 16 B per window, save one session's mesh8x8/sat+check (6 objects,
// 5.5 KB); a setup op, timed once, by up to 8 objects and 5.7 KB (one
// spin.New of mesh8x8/low read 128 to 136 objects in consecutive runs of
// one binary); and the sweep by up to 4 objects and 560 B a point, since
// which worker meets which shape first decides what each point reuses.
// A larger move is the code's; -benchmem on the row's Benchmark, which
// averages many operations, tells the two apart.
var update = flag.Bool("update", false, "rewrite the baseline of each gate run (BENCH_sim.json, BENCH_serve.json) from this machine's measurements")

const baselineFile = "BENCH_sim.json"

// slack is how far a gate lets a figure exceed its baseline: got passes up
// to want×mul+add.
type slack struct{ mul, add float64 }

// limits are one block's thresholds for a Cost's three figures.
type limits struct{ ns, bytes, objects slack }

// The blocks' thresholds. A step row's objects are its allocs/cycle, and a
// checked row is gated on its tax instead of its ns. Heap bytes and objects
// are machine-independent: the slack absorbs allocator bucketing (step
// rows), map and slice growth policy (setup), which worker meets which shape
// first (sweep), and the disk row's reads (serve).
var (
	stepLimits  = limits{ns: slack{1.10, 0}, bytes: slack{1.5, 64}, objects: slack{1, 0.01}}
	taxSlack    = slack{1.10, 0}
	setupLimits = limits{ns: slack{1.25, 0}, bytes: slack{1.05, 1024}, objects: slack{1.05, 16}}
	sweepLimits = limits{ns: slack{1.25, 0}, bytes: slack{1.10, 0}, objects: slack{1.10, 0}}
	serveLimits = limits{ns: slack{1.25, 0}, bytes: slack{1.05, 64}, objects: slack{1.05, 0.25}}
)

// bound is one gated figure of a row. A timed one (ns, or a ratio of ns)
// fails the test only when BENCH_STRICT is set.
type bound struct {
	what      string
	got, want float64
	slack
	timed bool
}

// costBounds are a Cost's three bounds under l, ns through the machines'
// calibration ratio scale.
func (l limits) costBounds(got, want Cost, scale float64, per string) []bound {
	return []bound{
		{"ns" + per, got.Ns, want.Ns * scale, l.ns, true},
		{"B" + per, got.Bytes, want.Bytes, l.bytes, false},
		{"objects" + per, got.Objects, want.Objects, l.objects, false},
	}
}

// gate is the one comparison every block's rows go through: it reports each
// bound exceeded, then logs the row's figures, their limits and note.
// The CI bench job sets BENCH_STRICT and runs this package alone; under a
// plain `go test ./...` other test binaries contend for the CPU, so an
// exceeded timing is reported but not fatal there, while bytes and objects
// are contention-immune and always enforce.
func gate(t *testing.T, row, note string, bs ...bound) {
	line := fmt.Sprintf("%-22s", row)
	for _, b := range bs {
		limit := b.want*b.mul + b.add
		line += fmt.Sprintf("  %.7g %s (limit %.7g)", b.got, b.what, limit)
		if b.got <= limit {
			continue
		}
		msg := fmt.Sprintf("%s: %.7g %s exceeds %.7g (baseline %.7g x %g + %g)", row, b.got, b.what, limit, b.want, b.mul, b.add)
		if b.timed && os.Getenv("BENCH_STRICT") == "" {
			t.Log(msg + " — advisory only; set BENCH_STRICT=1 to enforce")
		} else {
			t.Error(msg)
		}
	}
	t.Log(line + note)
}

// report is a BENCH_*.json document: a Header, then its blocks.
type report interface {
	header() *Header
	// carry copies the before fields of old, the baseline it replaces.
	carry(old report)
}

func (h *Header) header() *Header { return h }

func (r *Report) carry(old report) {
	o := old.(*Report)
	for i, w := range r.Workloads {
		prev, _ := o.Find(w.Name)
		r.Workloads[i].BeforeNsPerCycle, r.Workloads[i].BeforeBytesPerCycle = prev.BeforeNsPerCycle, prev.BeforeBytesPerCycle
	}
	for i := range r.Setup[:min(len(r.Setup), len(o.Setup))] {
		r.Setup[i].Before, r.Setup[i].BeforeReset = o.Setup[i].Before, o.Setup[i].BeforeReset
	}
	r.Sweep.Before, r.Sweep.BeforeBuilds = o.Sweep.Before, o.Sweep.BeforeBuilds
}

// skipUnderRace skips a test of timings or allocation counts, both of which
// race instrumentation distorts.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts timing and allocation counts")
	}
}

// skipGate skips a regression gate where its figures mean nothing.
func skipGate(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("short mode")
	}
}

// baseline reads the committed report at path into base, for cur to be
// gated on, and returns the machines' calibration ratio; under -update it
// instead rewrites path from cur, every block's before fields carried over,
// and returns 0: there is nothing to gate.
func baseline(t *testing.T, path string, cur, base report) float64 {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, base)
	}
	if *update {
		cur.carry(base)
		if b, err = json.MarshalIndent(cur, "", "  "); err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
	} else if err == nil && base.header().Schema != Schema {
		err = fmt.Errorf("schema %d, want %d", base.header().Schema, Schema)
	}
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", path, err)
	}
	if *update {
		return 0
	}
	scale := cur.header().CalibrationNs / base.header().CalibrationNs
	t.Logf("machine calibration: baseline %.3f ns/op, current %.3f ns/op (scale %.2fx)", base.header().CalibrationNs, cur.header().CalibrationNs, scale)
	return scale
}

// TestBenchRegression is the performance gate of BENCH_sim.json: its step
// rows, setup block and sweep block against the committed baseline, each
// under its own limits. ns is compared after scaling the baseline by the
// machines' calibration ratio; allocations and bytes are
// machine-independent and compare directly. A checked row (CheckSuffix) is
// gated on its ratio to its plain row instead — the checker's tax, which
// needs no calibration and does not move when Step itself gets faster. The
// serve block of BENCH_serve.json has a gate of its own, TestServeRegression.
//
// Each row also prints what it delivered of its offered load and how many
// spins it saw, and a row under StalledBelow is labelled stalled: its
// ns/cycle times a jammed network, not a moving one.
func TestBenchRegression(t *testing.T) {
	skipGate(t)
	cur, err := Collect(3, checkedWorkloads()...)
	if err != nil {
		t.Fatal(err)
	}
	cur.Sweep = measureSweep(t, 3)
	var base Report
	scale := baseline(t, baselineFile, &cur, &base)
	if scale == 0 {
		return
	}
	for _, got := range cur.Workloads {
		want, ok := base.Find(got.Name)
		if !ok {
			t.Errorf("%s: not in baseline; run with -update", got.Name)
			continue
		}
		bs := stepLimits.costBounds(Cost{got.NsPerCycle, got.BytesPerCycle, got.AllocsPerCycle},
			Cost{want.NsPerCycle, want.BytesPerCycle, want.AllocsPerCycle}, scale, "/cycle")
		if plain, checked := strings.CutSuffix(got.Name, CheckSuffix); checked {
			gotPlain, _ := cur.Find(plain)
			wantPlain, _ := base.Find(plain)
			bs[0] = bound{"x its plain row", got.NsPerCycle / gotPlain.NsPerCycle, want.NsPerCycle / wantPlain.NsPerCycle, taxSlack, true}
		}
		note := fmt.Sprintf("  %5.3f delivered/offered  %d spins", got.DeliveredPerOffered, got.Spins)
		if got.Stalled() {
			note += "  stalled"
		}
		gate(t, got.Name, note, bs...)
	}
	if len(base.Setup) != len(cur.Setup) {
		t.Fatalf("%s: setup block out of date; run with -update", baselineFile)
	}
	for i, got := range cur.Setup {
		want := base.Setup[i]
		gate(t, got.Name+" new", "", setupLimits.costBounds(got.New, want.New, scale, "")...)
		gate(t, got.Name+" reset", "", setupLimits.costBounds(got.Reset, want.Reset, scale, "")...)
		gate(t, got.Name+" pooled", "", setupLimits.costBounds(got.Pooled, want.Pooled, scale, "")...)
	}
	got, want := cur.Sweep, base.Sweep
	gate(t, got.Name, "", append(sweepLimits.costBounds(got.Cost, want.Cost, scale, "/point"),
		bound{"points off the baseline", float64(max(got.Points-want.Points, want.Points-got.Points)), 0, slack{}, false},
		bound{"networks built", float64(got.Builds), float64(want.Builds), slack{1, 0}, false})...)
}

// TestFirstRoundIsOneRun: a row's first window in the measuring loop, beside
// its twin and followed by another round, records what a standalone build →
// attach → warm-up → one measured window records (the same allocations and
// bytes per cycle, delivered load and spins), so what a row records does
// not depend on the rounds and twins measured with it.
//
// The heap figures of one window are not exact: the runtime's own
// background work after a GC allocates in whichever window is open, and
// some maps grow by 16 B more or less with their hash seed. So each side
// keeps its lowest figures over up to eight tries, and the two must meet.
func TestFirstRoundIsOneRun(t *testing.T) {
	skipUnderRace(t)
	for _, ws := range [][]Workload{{row(t, "mesh8x8/sat")}, {row(t, "torus8x8/spin1vc"), row(t, "torus8x8/spin1vc"+CheckSuffix)}} {
		loop, alone := make([]Result, len(ws)), make([]Result, len(ws))
		for try := 0; try < 8 && (try == 0 || !slices.Equal(loop, alone)); try++ {
			got, err := measureRows(2, ws)
			for i := 0; err == nil && i < len(ws); i++ {
				var one []Result
				if one, err = measureRows(1, ws[i:i+1]); err == nil {
					got[i].NsPerCycle, one[0].NsPerCycle = 0, 0
					loop[i], alone[i] = lowest(try, loop[i], got[i]), lowest(try, alone[i], one[0])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range ws {
			if loop[i] != alone[i] {
				t.Errorf("first round %+v, alone %+v", loop[i], alone[i])
			}
		}
	}
}

// lowest is s after a try, with the lower heap figures of r and s after the
// first.
func lowest(try int, r, s Result) Result {
	if try > 0 {
		s.AllocsPerCycle, s.BytesPerCycle = min(r.AllocsPerCycle, s.AllocsPerCycle), min(r.BytesPerCycle, s.BytesPerCycle)
	}
	return s
}

// row is the named row of the matrix, or a checked twin.
func row(t *testing.T, name string) Workload {
	for _, w := range append(append(Workloads(), ScaleWorkloads()...), checkedWorkloads()...) {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %s not defined", name)
	return Workload{}
}

// stepAllocBudget runs the named saturating workload with attach's
// observers on, warms it up, and requires that the next runs cycles (one
// Step each) allocate nothing. The runs are deterministic (fixed seed,
// sequential cycles), so the budget is exact, not statistical. check,
// when non-nil, runs after the measurement.
func stepAllocBudget(t *testing.T, name string, runs int, attach func(*sim.Network), check func(*testing.T, *sim.Network)) {
	skipUnderRace(t)
	t.Run(name, func(t *testing.T) {
		w := row(t, name)
		s, err := spin.New(w.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.Attach != nil {
			w.Attach(s.Network())
		}
		if attach != nil {
			attach(s.Network())
		}
		s.Run(8000)
		if avg := testing.AllocsPerRun(runs, func() { s.Run(1) }); avg != 0 {
			t.Errorf("steady-state Step allocates %.4f objects/cycle, want 0", avg)
		}
		if check != nil {
			check(t, s.Network())
		}
	})
}

// TestStepAllocBudget pins the steady-state allocation discipline:
// after warmup — pools populated, scratch buffers grown, source queues
// at their plateau — Network.Step must not allocate at all.
func TestStepAllocBudget(t *testing.T) {
	for _, name := range []string{"mesh8x8/idle", "mesh8x8/sat", "torus8x8/spin1vc", "dfly64/sat"} {
		stepAllocBudget(t, name, 300, nil, nil)
	}
}

// TestStepAllocBudgetFlightRecorder re-runs the zero-alloc gate with
// the forensics flight recorder attached: its ring must record SPIN
// protocol events without costing a single steady-state allocation,
// since it is meant to be left on in production runs.
func TestStepAllocBudgetFlightRecorder(t *testing.T) {
	for _, name := range []string{"mesh8x8/sat", "dfly64/sat"} {
		stepAllocBudget(t, name, 300,
			func(n *sim.Network) { n.AttachFlightRecorder(1024) },
			func(t *testing.T, n *sim.Network) {
				// Only the mesh workload is guaranteed SPIN activity at
				// saturation; dfly64's routing can stay recovery-free.
				if name == "mesh8x8/sat" && n.FlightRecorder().Total() == 0 {
					t.Error("flight recorder saw no SPIN events on a saturating mesh workload")
				}
			})
	}
}

// TestStepAllocBudgetObserverSet is the gate for everything a checked
// harness.Drive run attaches except the checker itself: the flight
// recorder, the DefaultMask event tail, the latency histogram and the
// window sampler, all at once. A window close appends its sample (by
// design, once per window), so the per-cycle budget is measured strictly
// inside one window: 8000 warm-up cycles end on a boundary and the 1+90
// measured cycles stay short of the next.
func TestStepAllocBudgetObserverSet(t *testing.T) {
	var tail *sim.EventRing
	stepAllocBudget(t, "mesh8x8/sat", 90,
		func(n *sim.Network) {
			n.AttachFlightRecorder(1024)
			tail = sim.NewEventRing(256, sim.DefaultMask)
			n.AddObserver(tail.Mask(), tail)
			n.AttachTelemetry(sim.TelemetryOptions{Hist: true, Window: 100})
		},
		func(t *testing.T, n *sim.Network) {
			if tail.Total() <= uint64(tail.Cap()) || n.FlightRecorder().Total() == 0 {
				t.Errorf("tail ring saw %d events (cap %d), flight ring %d: the rings were not exercised",
					tail.Total(), tail.Cap(), n.FlightRecorder().Total())
			}
			if ts := n.Telemetry().TimeSeries(); len(ts.Samples) != 80 || n.Telemetry().Latency().Count() == 0 {
				t.Errorf("sampler closed %d windows (want 80) or the histogram is empty", len(ts.Samples))
			}
		})
}

// TestStepAllocBudgetChecker is the same gate with the invariant checker
// attached as harness.Drive attaches it: the delta pass, the audits and the
// oracle samples that fall among the measured cycles run out of scratch the
// checker and the network keep, and delivered packets still recycle. Only
// the delivered-ID set grows, by doubling: rarely enough to round to zero.
func TestStepAllocBudgetChecker(t *testing.T) {
	for _, name := range []string{"mesh8x8/sat" + CheckSuffix, "torus8x8/spin1vc" + CheckSuffix} {
		stepAllocBudget(t, name, 300, nil, func(t *testing.T, n *sim.Network) {
			if err := n.Checker().Err(); err != nil {
				t.Error(err)
			}
			if name == "torus8x8/spin1vc"+CheckSuffix && n.Checker().OracleFirings() == 0 {
				t.Error("the oracle never fired in the 1-VC regime: its samples were not exercised")
			}
		})
	}
}

// TestStepAllocBudgetWorkloads extends the zero-alloc gate to the shaped
// traffic generators: the closed-loop request/response clients (whose
// reply queues and window accounting must reach a steady-state plateau
// and then stop allocating), the burst modulator, and the replay engine
// fed from memory (whose per-source queues must plateau likewise). Same
// discipline as TestStepAllocBudget: after warmup, Step allocates
// nothing.
func TestStepAllocBudgetWorkloads(t *testing.T) {
	skipUnderRace(t)
	build := func(t *testing.T, kind string) *sim.Network {
		m, err := topology.NewMesh(8, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		var gen sim.TrafficGen
		switch kind {
		case "closedloop":
			gen, err = workload.Build(workload.Spec{Mode: "closed", Window: 4, Think: 8}, traffic.Uniform(64), 0.2, 0, 2, 64, 17)
			if err != nil {
				t.Fatal(err)
			}
		case "burst":
			gen = &workload.Burst{
				Inner:   &traffic.Synthetic{Pattern: traffic.Uniform(64), Rate: 0.2, VNets: 2},
				OnMean:  12,
				OffMean: 36,
			}
		}
		n, err := sim.NewNetwork(sim.Config{
			Topology:   m,
			Routing:    &routing.XY{Mesh: m},
			Traffic:    gen,
			VNets:      2,
			VCsPerVNet: 2,
			Seed:       17,
		})
		if err != nil {
			t.Fatal(err)
		}
		if kind == "replay" {
			// Four packets a cycle, past the end of the measurement.
			rng := rand.New(rand.NewSource(17))
			entries := make([]traffic.TraceEntry, 4*9000)
			for i := range entries {
				src := rng.Intn(64)
				entries[i] = traffic.TraceEntry{Cycle: int64(i / 4), Src: src, Dst: (src + 1 + rng.Intn(63)) % 64,
					Length: 1 + 4*rng.Intn(2), VNet: rng.Intn(2)}
			}
			rp, err := traffic.NewStreamReplay(traffic.SliceSource(entries), n.Config())
			if err != nil {
				t.Fatal(err)
			}
			n.SetTraffic(rp)
		}
		return n
	}
	for _, kind := range []string{"closedloop", "burst", "replay"} {
		t.Run(kind, func(t *testing.T) {
			n := build(t, kind)
			n.Run(8000)
			if avg := testing.AllocsPerRun(300, func() { n.Run(1) }); avg != 0 {
				t.Errorf("steady-state Step allocates %.4f objects/cycle, want 0", avg)
			}
		})
	}
}

// BenchmarkStep exposes the workload matrix to `go test -bench` so CI
// and benchstat see standard ns/op + allocs/op series per cycle.
func BenchmarkStep(b *testing.B) {
	for _, w := range append(append(Workloads(), ScaleWorkloads()...), checkedWorkloads()...) {
		b.Run(w.Name, func(b *testing.B) {
			s, err := spin.New(w.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			if w.Attach != nil {
				w.Attach(s.Network())
			}
			s.Run(w.Warmup)
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(int64(b.N))
		})
	}
}

// BenchmarkSetup exposes the setup block to `go test -bench`: one of its
// operations per iteration.
func BenchmarkSetup(b *testing.B) {
	names, ops, err := setupOps()
	if err != nil {
		b.Fatal(err)
	}
	for i, o := range ops {
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if o.prep != nil {
					b.StopTimer()
					o.prep()
					b.StartTimer()
				}
				if _, err := o.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCalibration publishes the machine-speed kernel so benchmark
// artifacts record the hardware context next to the simulator numbers.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		xorshift(1024)
	}
}
