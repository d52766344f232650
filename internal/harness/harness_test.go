package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	spin "repro"
	"repro/internal/sim"
)

// artifactDir is where failing scenarios leave their replay artifacts;
// t.TempDir would delete them with the test, which defeats the point.
func artifactDir() string {
	if d := os.Getenv("HARNESS_ARTIFACT_DIR"); d != "" {
		return d
	}
	return os.TempDir()
}

func TestGenerateProducesValidScenarios(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 300; seed++ {
		sc := Generate(rand.New(rand.NewSource(seed)))
		if _, err := sc.Sim(); err != nil {
			t.Fatalf("seed %d generated invalid scenario %s: %v", seed, sc, err)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(rand.New(rand.NewSource(seed)))
		b := Generate(rand.New(rand.NewSource(seed)))
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

// TestScenarioJSONRoundTrip: a generated scenario and every Table III
// preset — Go-API values — survive the wire unchanged.
func TestScenarioJSONRoundTrip(t *testing.T) {
	t.Parallel()
	scs := []Scenario{Generate(rand.New(rand.NewSource(7)))}
	for _, p := range spin.Presets() {
		scs = append(scs, p.Config)
	}
	for _, sc := range scs {
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario: %#v -> %#v", sc, back)
		}
	}
}

// TestRandomScenarios is the acceptance corpus: 200 generated scenarios
// over the fixed seed range 1..200, every one run with the invariant
// checker attached and drained to empty; scenarios with an escape-VC
// baseline additionally run the differential oracle on the recorded
// workload. A failure writes a replayable scenario.json artifact.
func TestRandomScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is not short")
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(rand.New(rand.NewSource(seed)))
		t.Run(fmt.Sprintf("%03d/%s", seed, sc), func(t *testing.T) {
			t.Parallel()
			if DifferentialEligible(sc) {
				d, err := RunDifferential(sc)
				if err != nil {
					t.Fatal(err)
				}
				if d.Failed() {
					res := d.Primary
					if !d.Primary.Failed() && d.Baseline.Failed() {
						res = d.Baseline
					}
					res.Violations = append(res.Violations, mismatchViolations(d)...)
					t.Fatal(ReportFailure(artifactDir(), res))
				}
				return
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatal(ReportFailure(artifactDir(), res))
			}
		})
	}
}

func TestGenerateWorkloadProducesValidScenarios(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 300; seed++ {
		sc := GenerateWorkload(rand.New(rand.NewSource(seed)))
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d generated invalid scenario %s: %v", seed, sc, err)
		}
		if _, err := sc.Sim(); err != nil {
			t.Fatalf("seed %d generated unbuildable scenario %s: %v", seed, sc, err)
		}
	}
}

// TestWorkloadScenarios extends the acceptance corpus with 200 shaped
// workloads — closed-loop, bursty, hotspot — each run under the full
// invariant checker (including the window rules) and drained to empty.
func TestWorkloadScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is not short")
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc := GenerateWorkload(rand.New(rand.NewSource(1000 + seed)))
		t.Run(fmt.Sprintf("%03d/%s", seed, sc), func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatal(ReportFailure(artifactDir(), res))
			}
		})
	}
}

// mismatchViolations folds differential delivery mismatches into checker
// violations so they land in the artifact.
func mismatchViolations(d *DiffResult) []sim.Violation {
	var vs []sim.Violation
	for _, m := range d.Mismatches {
		vs = append(vs, sim.Violation{Rule: "differential", Detail: m})
	}
	return vs
}

// TestSpinRecoveryBoundRegression pins the paper's recovery-bound claim:
// on a 4x4 mesh under fully adaptive routing at saturation, the global
// oracle must never see a deadlock outlive the recovery bound — SPIN's
// distributed detection has to find and break every one of them. 20
// pinned seeds, run by plain `go test ./...` (no -fuzz needed).
func TestSpinRecoveryBoundRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation regression is not short")
	}
	var totalSpins int64
	results := make([]*Result, 20)
	for i := range results {
		i := i
		t.Run(fmt.Sprintf("seed%02d", i+1), func(t *testing.T) {
			t.Parallel()
			sc := Scenario{
				Topology:   "mesh:4x4",
				Routing:    "min_adaptive",
				Scheme:     "spin",
				Traffic:    "uniform_random",
				Rate:       0.55, // deep saturation for a 1-VC adaptive mesh
				DataFrac:   0.5,
				VNets:      1,
				VCsPerVNet: 1,
				VCDepth:    5,
				Seed:       int64(i + 1),
				TDD:        16,
				Cycles:     2500,
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatal(ReportFailure(artifactDir(), res))
			}
			results[i] = res
		})
	}
	t.Cleanup(func() {
		for _, r := range results {
			if r != nil {
				totalSpins += r.Spins
			}
		}
		// The point of saturating a fully adaptive 1-VC mesh is that
		// deadlocks actually form; a corpus with zero spins would mean
		// the regression is not exercising recovery at all.
		if totalSpins == 0 {
			t.Error("no spins across 20 saturation seeds: recovery untested")
		}
	})
}

// brokenScenario is a deliberately invalid configuration — fully
// adaptive cyclic routing with no recovery scheme at saturation — that
// deterministically deadlocks, standing in for a broken build in the
// artifact tests.
func brokenScenario() Scenario {
	return Scenario{
		Topology:   "mesh:4x4",
		Routing:    "min_adaptive",
		Scheme:     "", // cyclic routing without recovery: guaranteed stuck
		Traffic:    "bit_complement",
		Rate:       0.6,
		DataFrac:   0.5,
		VNets:      1,
		VCsPerVNet: 1,
		VCDepth:    5,
		Seed:       11,
		TDD:        16,
		Cycles:     1200,
		// Keep the doomed drain cheap; it can never complete.
		DrainCycles: 2000,
	}
}

// TestArtifactReplayReproduces is the broken-build drill: a violating run
// must leave exactly one artifact, holding the event tail after the drain
// (bounded by TraceTail, chronological, event kinds spelled out), the
// flight recorder's snapshot and the CDG cut, whose scenario replays to
// the identical violations.
func TestArtifactReplayReproduces(t *testing.T) {
	t.Parallel()
	res, err := Run(brokenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("deliberately broken scenario did not fail")
	}
	if len(res.Violations) == 0 {
		t.Fatal("expected checker violations, only drain failure")
	}
	if len(res.Trace) == 0 || len(res.Trace) > TraceTail {
		t.Fatalf("trace tail holds %d events, want 1..%d", len(res.Trace), TraceTail)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cycle < res.Trace[i-1].Cycle {
			t.Fatalf("trace not chronological at %d: %d after %d", i, res.Trace[i].Cycle, res.Trace[i-1].Cycle)
		}
	}
	dir := t.TempDir()
	msg := ReportFailure(dir, res)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("a failure left %d files, want 1:\n%s", len(files), msg)
	}
	path := filepath.Join(dir, files[0].Name())
	if strings.Count(msg, path) != 2 || strings.Count(msg, "spinsim -replay-artifact") != 1 {
		t.Fatalf("report does not name one path and one replay command:\n%s", msg)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace"`, `"snapshot"`, `"cdg"`, `"kind": "`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("artifact missing %s", want)
		}
	}
	art, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", art.Scenario) != fmt.Sprintf("%+v", res.Scenario) {
		t.Fatalf("artifact scenario drifted: %+v != %+v", art.Scenario, res.Scenario)
	}
	if !reflect.DeepEqual(art.Trace, res.Trace) || !reflect.DeepEqual(art.Snapshot, res.Forensics) || art.CDG == nil {
		t.Fatal("artifact event lists or CDG cut did not round-trip")
	}
	if len(art.Notes) == 0 || !strings.Contains(art.Notes[0], "drain incomplete") {
		t.Fatalf("notes %v lack the drain verdict", art.Notes)
	}
	// Replay: the violations must reproduce exactly, cycle for cycle.
	again, err := Run(art.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Violations, res.Violations) {
		t.Fatalf("replay diverged:\nfirst:  %v\nreplay: %v", res.Violations, again.Violations)
	}
	if again.Drained != res.Drained {
		t.Fatal("replay drain verdict diverged")
	}
}

func TestBaselineDerivation(t *testing.T) {
	t.Parallel()
	sc := Scenario{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 1, Seed: 3, TDD: 16}
	b := Baseline(sc)
	if b.Routing != "escape_vc" || b.Scheme != "" || b.VCsPerVNet != 2 || b.TDD != 0 {
		t.Fatalf("bad baseline: %+v", b)
	}
	if b.Topology != sc.Topology || b.Seed != sc.Seed {
		t.Fatal("baseline must keep topology and seed")
	}
}

func TestCompareDeliveriesFlagsDivergence(t *testing.T) {
	t.Parallel()
	a := &Result{Delivered: []Delivery{{ID: 1, Src: 0, Dst: 3, Length: 5}, {ID: 2, Src: 1, Dst: 2, Length: 1}}}
	b := &Result{Delivered: []Delivery{{ID: 1, Src: 0, Dst: 3, Length: 5}}}
	if ms := compareDeliveries(a, b, 2); len(ms) == 0 {
		t.Fatal("missing baseline delivery not flagged")
	}
	c := &Result{Delivered: []Delivery{{ID: 1, Src: 0, Dst: 3, Length: 5}, {ID: 2, Src: 1, Dst: 2, Length: 3}}}
	if ms := compareDeliveries(a, c, 2); len(ms) != 1 || !strings.Contains(ms[0], "packet 2 differs") {
		t.Fatalf("length-only divergence flagged as %v", ms)
	}
	if ms := compareDeliveries(a, a, 2); len(ms) != 0 {
		t.Fatalf("identical sets flagged: %v", ms)
	}
	// A run's tuples come from its packet_eject events, length included: a
	// run that lost the lengths would compare equal to any other.
	sc := Scenario{Topology: "mesh:4x4", Routing: "xy", Traffic: "uniform_random", Rate: 0.2, Cycles: 300, Seed: 1}
	s, err := sc.Sim()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runDelivering(sc, s.Network())
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[int]bool{}
	for _, d := range res.Delivered {
		lengths[d.Length] = true
	}
	if len(res.Delivered) != int(res.Ejected) || !lengths[1] || !lengths[5] || len(lengths) != 2 {
		t.Fatalf("%d deliveries of %d ejected packets, lengths %v: want every packet, 1- and 5-flit", len(res.Delivered), res.Ejected, lengths)
	}
}

// TestArtifactEmbedsTraceTail pins the observability contract on
// failure artifacts: the written scenario-<key>.json carries the tail
// of the run's telemetry event stream, bounded by TraceTail, in
// chronological order, and it survives the JSON round trip.
func TestArtifactEmbedsTraceTail(t *testing.T) {
	t.Parallel()
	res, err := Run(brokenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("deliberately broken scenario did not fail")
	}
	if len(res.Trace) == 0 {
		t.Fatal("failed run recorded no telemetry events")
	}
	if len(res.Trace) > TraceTail {
		t.Fatalf("trace tail %d exceeds bound %d", len(res.Trace), TraceTail)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cycle < res.Trace[i-1].Cycle {
			t.Fatalf("trace not chronological at %d: %d after %d", i, res.Trace[i].Cycle, res.Trace[i-1].Cycle)
		}
	}
	path, err := WriteArtifact(t.TempDir(), NewArtifact(res))
	if err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art.Trace, res.Trace) {
		t.Fatal("artifact trace did not round-trip")
	}
	// The raw file spells event kinds symbolically, not as ints.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("artifact is not valid JSON")
	}
	for _, want := range []string{`"trace"`, `"kind"`, `"cycle"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("artifact missing %s", want)
		}
	}
}

// TestDifferentialRates logs how fast SPIN and the escape-VC baseline
// deliver the same recorded workload at the two loads where SPIN's
// throughput collapses on mesh:8x8 (1 VC at 0.12, 3 VCs at 0.30, uniform).
// It reports; it judges nothing but that both runs delivered something.
func TestDifferentialRates(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-cycle checked runs are not short")
	}
	for _, tc := range []struct {
		vcs  int
		rate float64
	}{{1, 0.12}, {3, 0.30}} {
		sc := Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random",
			Rate: tc.rate, VCsPerVNet: tc.vcs, Cycles: 20000, Seed: 1}
		t.Run(fmt.Sprintf("%dvc@%g", tc.vcs, tc.rate), func(t *testing.T) {
			t.Parallel()
			d, err := RunDifferential(sc)
			if err != nil {
				t.Fatal(err)
			}
			b := Baseline(sc)
			t.Logf("offered %.3f flits/node/cycle: SPIN %s/%dVC delivered %.4f (drained at cycle %d); baseline %s/%dVC %.4f (drained at cycle %d); %s",
				tc.rate, sc.Routing, sc.VCsPerVNet, d.PrimaryRate.PerNode, d.PrimaryRate.DrainedAt,
				b.Routing, b.VCsPerVNet, d.BaselineRate.PerNode, d.BaselineRate.DrainedAt, d.Summary())
			if d.PrimaryRate.Flits == 0 || d.BaselineRate.Flits == 0 {
				t.Fatalf("a run delivered nothing in its measurement window: %+v, %+v", d.PrimaryRate, d.BaselineRate)
			}
		})
	}
}

// booksOff is a closed-loop source that issues nothing and whose window
// audit always fails.
type booksOff struct{}

func (booksOff) Generate(int64, int64, int, *sim.Stream, func(sim.PacketSpec)) int64 {
	return sim.Never
}
func (booksOff) OnEject(*sim.Packet) {}
func (booksOff) Quiesce(bool)        {}
func (booksOff) WindowLimit() int    { return 1 }
func (booksOff) Outstanding(int) int { return 0 }
func (booksOff) InWindow() int64     { return 0 }
func (booksOff) AuditWindows() error { return fmt.Errorf("books off") }

// TestWindowFaultReportedOnce: a closed-loop accounting fault is the
// checker's to report, and a checked, drained Drive reports it once.
func TestWindowFaultReportedOnce(t *testing.T) {
	sc := Scenario{Topology: "mesh:4x4", Routing: "xy", Cycles: 50}
	s, err := sc.Sim()
	if err != nil {
		t.Fatal(err)
	}
	net := s.Network()
	net.SetTraffic(booksOff{})
	res, err := Drive(context.Background(), sc, net, Observe{Check: true, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	var window []sim.Violation
	for _, v := range res.Violations {
		if v.Rule == sim.RuleWindow {
			window = append(window, v)
		}
	}
	if len(window) != 1 || !res.Drained {
		t.Fatalf("drained %v, window violations %v, want exactly one", res.Drained, window)
	}
}

// TestDrainHonoursContext: a drain that cannot finish — a schemeless 1-VC
// mesh jammed at half load, with a budget of two million cycles — stops
// within one poll of its context being cancelled and returns the context's
// error, as the traffic phase does.
func TestDrainHonoursContext(t *testing.T) {
	sc := Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", VCsPerVNet: 1,
		Traffic: "uniform_random", Rate: 0.5, Cycles: 3000, DrainCycles: 2_000_000, Seed: 1}
	s, err := sc.Sim()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	o := Observe{Drain: true, OnWindow: func(done int64, _ []sim.WindowSample) {
		time.AfterFunc(200*time.Millisecond, func() { cancelled = time.Now(); cancel() })
	}}
	res, err := Drive(ctx, sc, s.Network(), o)
	late := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Drive = %v, %v at cycle %d; want the context's error", res, err, s.Network().Now())
	}
	if now := s.Network().Now(); now <= sc.Cycles || late > time.Second {
		t.Fatalf("returned at cycle %d, %v after the cancel; want a drain stopped within a second", now, late)
	}
}
