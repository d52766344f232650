package bench

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
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

var update = flag.Bool("update", false, "rewrite the baseline of each gate run (BENCH_sim.json, BENCH_serve.json) from this machine's measurements")

const baselineFile = "BENCH_sim.json"

// TestBenchRegression is the performance gate: current per-cycle cost
// versus the committed BENCH_sim.json baseline. ns/cycle is compared
// after scaling the baseline by the machines' calibration ratio and
// allowing 10% noise; allocations and bytes per cycle are
// machine-independent and compare directly (allocations near-exactly,
// bytes with slack for allocator bucketing). A checked row (CheckSuffix) is
// gated on its ratio to its plain row instead — the checker's tax, which
// needs no calibration and does not move when Step itself gets faster. The
// setup block (spin.New and Reset per configuration) is gated likewise. The
// serve block of BENCH_serve.json has a gate of its own, TestServeRegression.
//
// The wall-clock limit only fails the test when BENCH_STRICT is set in
// the environment (the CI bench job sets it and runs this package
// alone). Under a plain `go test ./...`, other test binaries run
// concurrently and contend for the CPU, so an over-limit timing is
// reported but not fatal; the allocation and byte gates are
// contention-immune and always enforce.
//
// Each row also prints what it delivered of its offered load and how many
// spins it saw, and a row under StalledBelow is labelled stalled: its
// ns/cycle times a jammed network, not a moving one.
func TestBenchRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts timing and allocation counts")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cur, err := Collect(3, checkedWorkloads()...)
	if err != nil {
		t.Fatal(err)
	}
	cur.Sweep = measureSweep(t, 3)
	if *update {
		if old, err := Load(baselineFile); err == nil {
			cur.Sweep.Before, cur.Sweep.BeforeBuilds = old.Sweep.Before, old.Sweep.BeforeBuilds
			for i, w := range cur.Workloads {
				prev, _ := old.Find(w.Name)
				cur.Workloads[i].BeforeNsPerCycle, cur.Workloads[i].BeforeBytesPerCycle = prev.BeforeNsPerCycle, prev.BeforeBytesPerCycle
			}
			for i, prev := range old.Setup {
				cur.Setup[i].Before, cur.Setup[i].BeforeReset = prev.Before, prev.BeforeReset
			}
		}
		if err := cur.Write(baselineFile); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (calibration %.3f ns/op)", baselineFile, cur.CalibrationNs)
		return
	}
	base, err := Load(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	scale := cur.CalibrationNs / base.CalibrationNs
	t.Logf("machine calibration: baseline %.3f ns/op, current %.3f ns/op (scale %.2fx)",
		base.CalibrationNs, cur.CalibrationNs, scale)
	for _, got := range cur.Workloads {
		want, ok := base.Find(got.Name)
		if !ok {
			t.Errorf("%s: not in baseline; run with -update", got.Name)
			continue
		}
		limit := want.NsPerCycle * scale * 1.10
		gate := fmt.Sprintf("%.0f ns/cycle exceeds %.0f (baseline %.0f x calibration %.2f x 1.10)", got.NsPerCycle, limit, want.NsPerCycle, scale)
		over := got.NsPerCycle > limit
		if plain, checked := strings.CutSuffix(got.Name, CheckSuffix); checked {
			gotPlain, _ := cur.Find(plain)
			wantPlain, _ := base.Find(plain)
			tax, baseTax := got.NsPerCycle/gotPlain.NsPerCycle, want.NsPerCycle/wantPlain.NsPerCycle
			gate = fmt.Sprintf("%.2fx its plain row exceeds %.2fx (baseline %.2fx x 1.10)", tax, baseTax*1.10, baseTax)
			over = tax > baseTax*1.10
		}
		moving := ""
		if got.Stalled() {
			moving = "  stalled"
		}
		t.Logf("%-22s %8.0f ns/cycle (limit %8.0f)  %6.3f allocs/cycle  %8.1f B/cycle  %5.3f delivered/offered  %5d spins%s",
			got.Name, got.NsPerCycle, limit, got.AllocsPerCycle, got.BytesPerCycle, got.DeliveredPerOffered, got.Spins, moving)
		if over && os.Getenv("BENCH_STRICT") != "" {
			t.Errorf("%s: %s", got.Name, gate)
		} else if over {
			t.Logf("%s: %s — advisory only; set BENCH_STRICT=1 to enforce", got.Name, gate)
		}
		if got.AllocsPerCycle > want.AllocsPerCycle+0.01 {
			t.Errorf("%s: %.3f allocs/cycle exceeds baseline %.3f",
				got.Name, got.AllocsPerCycle, want.AllocsPerCycle)
		}
		if got.BytesPerCycle > want.BytesPerCycle*1.5+64 {
			t.Errorf("%s: %.1f B/cycle exceeds baseline %.1f by more than 1.5x+64",
				got.Name, got.BytesPerCycle, want.BytesPerCycle)
		}
	}
	// The setup block: heap bytes and objects per spin.New and per Reset are
	// machine-independent and compare directly (5 % + a little slack for
	// map and slice growth policy), ns through the calibration ratio under
	// the same advisory-unless-BENCH_STRICT rule.
	for i, got := range cur.Setup {
		want := base.Setup[i]
		for _, c := range []struct {
			op                string
			got, want, before Cost
		}{{"spin.New", got.New, want.New, want.Before}, {"Reset", got.Reset, want.Reset, want.BeforeReset}, {"pooled", got.Pooled, want.Pooled, want.BeforeReset}} {
			limit := c.want.Ns * scale * 1.25
			t.Logf("%-13s %-8s %10.0f ns (limit %10.0f) %9.0f B %6.0f objects (before: %.0f ns, %.0f B, %.0f objects)",
				got.Name, c.op, c.got.Ns, limit, c.got.Bytes, c.got.Objects, c.before.Ns, c.before.Bytes, c.before.Objects)
			if c.got.Bytes > c.want.Bytes*1.05+1024 || c.got.Objects > c.want.Objects*1.05+16 {
				t.Errorf("%s %s: %.0f B in %.0f objects exceeds baseline %.0f in %.0f", got.Name, c.op, c.got.Bytes, c.got.Objects, c.want.Bytes, c.want.Objects)
			}
			if c.got.Ns > limit && os.Getenv("BENCH_STRICT") != "" {
				t.Errorf("%s %s: %.0f ns exceeds %.0f (baseline %.0f x calibration %.2f x 1.25)", got.Name, c.op, c.got.Ns, limit, c.want.Ns, scale)
			}
		}
	}
	checkSweep(t, cur.Sweep, base.Sweep, scale, os.Getenv("BENCH_STRICT") != "")
}

// stepAllocBudget runs the named saturating workload with attach's
// observers on, warms it up, and requires that the next runs cycles (one
// Step each) allocate nothing. The runs are deterministic (fixed seed,
// sequential cycles), so the budget is exact, not statistical. check,
// when non-nil, runs after the measurement.
func stepAllocBudget(t *testing.T, name string, runs int, attach func(*sim.Network), check func(*testing.T, *sim.Network)) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	t.Run(name, func(t *testing.T) {
		var w Workload
		for _, cand := range append(Workloads(), checkedWorkloads()...) {
			if cand.Name == name {
				w = cand
			}
		}
		if w.Name == "" {
			t.Fatalf("workload %s not defined", name)
		}
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
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
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

// BenchmarkSetup exposes the setup block to `go test -bench`: one build, and
// one rewind of a built simulation that has run, per iteration.
func BenchmarkSetup(b *testing.B) {
	for _, w := range SetupWorkloads() {
		b.Run(w.Name+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spin.New(w.Cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.Name+"/reset", func(b *testing.B) {
			s, err := spin.New(w.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.Run(w.dirtyCycles())
				b.StartTimer()
				if err := s.Reset(w.Cfg); err != nil {
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
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1024; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink += x
	}
}
