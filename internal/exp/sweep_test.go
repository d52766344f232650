package exp

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// schemaSpecimens builds one synthetic instance of every sweep result
// type. The values are arbitrary; the golden file pins the *encoding* —
// field names, nesting, ordering — which is the schema contract between
// spinsweep -json, the spind /v1/sweep endpoint, and downstream plotting
// scripts.
func schemaSpecimens() []struct {
	Name string
	V    interface{}
} {
	return []struct {
		Name string
		V    interface{}
	}{
		{"fig3", &Fig3Result{Cycles: 1000, Entries: []Fig3Entry{
			{Topology: "mesh", Pattern: "uniform_random", MinRate: 0.35},
			{Topology: "dragonfly", Pattern: "tornado", MinRate: 0},
		}}},
		{"fig67", Figures{
			"uniform_random": {
				Title: "Fig. 7: mesh mesh:4x4 — uniform_random", XLabel: "inj_rate",
				YLabel: "avg packet latency (cycles)",
				Series: []Series{{Label: "WestFirst_3VC", Points: []Point{{X: 0.05, Y: 12.5}, {X: 0.1, Y: 14}}}},
			},
			"tornado": {
				Title: "Fig. 7: mesh mesh:4x4 — tornado", XLabel: "inj_rate",
				YLabel: "avg packet latency (cycles)",
				Series: []Series{{Label: "MinAdaptive_SPIN_3VC", Points: []Point{{X: 0.05, Y: 11}}}},
			},
		}},
		{"fig8a", &Fig8aResult{Entries: []Fig8aEntry{{Benchmark: "blackscholes", NormalizedEDP: 0.82}}}},
		{"fig8b", &Fig8bResult{Rates: []float64{0.1}, Entries: []sim.LinkUtilisation{
			{Flit: 0.1, SM: [4]float64{0.001, 0.002, 0, 0}, SMAll: 0.003, Idle: 0.897},
		}}},
		{"fig9", &Fig9Result{Entries: []Fig9Entry{
			{Topology: "mesh", VCs: 1, Rate: 0.3, Spins: 12, FalsePositives: 3, Probes: 40},
		}}},
		{"fig10", &Fig10Result{Entries: []Fig10Entry{{Design: "westfirst", Area: 4000, Normalized: 1}}}},
		{"costs", &CostSummary{Rows: []CostRow{{Topology: "mesh", AreaSave1v3: 0.52, AreaSave1v2: 0.33, PowerSave1v3: 0.5}}}},
		{"torus", &TorusComparison{Rates: []float64{0.05}, Bubble: []float64{20.1}, SPIN: []float64{18.3}}},
		{"deflection", &DeflectionComparison{Rates: []float64{0.05}, Deflection: []float64{9.1}, Buffered: []float64{10.2}, AvgDeflect: []float64{0.4}}},
		{"workload", &WorkloadSweepResult{Topology: "mesh:4x4", Window: 8, Points: []WorkloadPoint{
			{Offered: 0.3, Achieved: 0.21, AvgLat: 24.5, P50: 18, P99: 96},
		}}},
	}
}

// TestSweepJSONSchemaGolden pins the canonical JSON encoding of every
// sweep result type against a golden file. A diff here means the output
// schema of spinsweep -json (and the spind API, which shares EncodeJSON)
// changed: update the golden with -update AND bump
// internal/serve.ResultVersion so stale cached results are not replayed
// under the new schema.
func TestSweepJSONSchemaGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sp := range schemaSpecimens() {
		fmt.Fprintf(&got, "===== %s =====\n", sp.Name)
		if err := EncodeJSON(&got, sp.V); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "sweep_schema.golden"), got.Bytes())
}

// TestAnalyticSweepGolden pins the full bytes of the two simulation-free
// sweeps (the area model is deterministic arithmetic), so the end-to-end
// Sweep → EncodeJSON path — not just hand-built specimens — is covered.
func TestAnalyticSweepGolden(t *testing.T) {
	var got bytes.Buffer
	for _, fig := range []string{"10", "costs"} {
		v, err := Sweep(context.Background(), fig, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "===== fig %s =====\n", fig)
		if err := EncodeJSON(&got, v); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "analytic_sweeps.golden"), got.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output schema drifted from %s.\nIf intentional: re-run with -update and bump serve.ResultVersion.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSweepRequestNormalization pins the request-side canonical form.
func TestSweepRequestNormalization(t *testing.T) {
	if err := (Options{Fig: "nope"}).Validate(); err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, id := range SweepIDs() {
		if err := (Options{Fig: id}).Validate(); err != nil {
			t.Fatalf("%s rejected: %v", id, err)
		}
	}
	// Defaults collapse: explicit defaults and omitted knobs hash alike.
	a := Options{Fig: "7", Seed: 1}
	b := Options{Fig: "7", Seed: 1, Cycles: 20000, Warmup: 2000}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("defaults did not collapse:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}
	// All negative warmups mean the same thing.
	c := Options{Fig: "7", Seed: 1, Warmup: -7}
	d := Options{Fig: "7", Seed: 1, Warmup: -1}
	if !bytes.Equal(c.Canonical(), d.Canonical()) {
		t.Fatal("negative warmups did not collapse")
	}
	// Distinct requests stay distinct; execution knobs are not the request.
	e := Options{Fig: "7", Seed: 2}
	if bytes.Equal(a.Canonical(), e.Canonical()) {
		t.Fatal("seed not part of the canonical form")
	}
	f := Options{Fig: "7", Seed: 1, Workers: 3, Timeout: time.Minute, Progress: func(runner.Event) {}}
	if !bytes.Equal(a.Canonical(), f.Canonical()) {
		t.Fatalf("execution knobs entered the canonical form: %s", f.Canonical())
	}
	// Round trip through the strict decoder.
	dec, err := DecodeSweepRequest(bytes.NewReader(a.Canonical()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, a.Normalized()) {
		t.Fatalf("round trip changed the request: %+v vs %+v", dec, a.Normalized())
	}
	for _, body := range []string{`{"fig":"7","cycels":5}`, `{"fig":"7","Workers":4}`} {
		if _, err := DecodeSweepRequest(strings.NewReader(body)); err == nil {
			t.Errorf("unknown field accepted: %s", body)
		}
	}
}

// TestSweepOptionsCarrySemantics checks the path benchmark/sweep.go still
// takes, a SweepRequest normalized and then projected with Options: every
// request field arrives, and the warmup is derived from the cycles asked for.
func TestSweepOptionsCarrySemantics(t *testing.T) {
	o := SweepRequest{Fig: "7", Seed: 9, Cycles: 500, Full: true, Check: true}.Normalized().Options()
	want := Options{Fig: "7", Seed: 9, Cycles: 500, Warmup: 50, Full: true, Check: true}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("options = %+v, want %+v", o, want)
	}
}

// TestValidateNeedsMeasurementWindow: a sweep whose knobs leave its points
// no measurement window is refused for every figure, as spin.Config.Validate
// refuses such a run, instead of running and reporting all-zero rows.
func TestValidateNeedsMeasurementWindow(t *testing.T) {
	for _, id := range SweepIDs() {
		for _, o := range []Options{
			{Fig: id, Cycles: 100, Warmup: 200},
			{Fig: id, Cycles: 100, Warmup: 100},
			{Fig: id, Cycles: -5},
		} {
			if err := o.Validate(); err == nil {
				t.Errorf("fig %s: cycles %d, warmup %d accepted", id, o.Cycles, o.Warmup)
			}
		}
		for _, o := range []Options{
			{Fig: id, Cycles: 100, Warmup: 99},
			{Fig: id, Cycles: 1},
			{Fig: id, Cycles: 100, Warmup: -1},
		} {
			if err := o.Validate(); err != nil {
				t.Errorf("fig %s: cycles %d, warmup %d refused: %v", id, o.Cycles, o.Warmup, err)
			}
		}
	}
	if _, err := PresetSweep(context.Background(), "mesh_xy", "", 0, Options{Cycles: 100, Warmup: 200}); err == nil ||
		!strings.Contains(err.Error(), "measurement window") {
		t.Errorf("preset sweep with no measurement window: %v", err)
	}
}

// TestSweepCheckNeverAliases is the table over SweepIDs behind the
// "check silently ignored" fix: a figure either runs its points under the
// invariant checker — then check stays in the canonical request, so the
// checked and unchecked results get distinct content addresses — or it
// never runs a checker (Fig. 3 deadlocks on purpose; Fig. 10 and the cost
// table are analytic) and normalization clears the flag, so a "checked"
// key can never name an unchecked result.
func TestSweepCheckNeverAliases(t *testing.T) {
	exempt := map[string]bool{"3": true, "10": true, "costs": true}
	for _, id := range SweepIDs() {
		plain := Options{Fig: id, Seed: 1, Cycles: 300}
		checked := plain
		checked.Check = true
		same := bytes.Equal(plain.Canonical(), checked.Canonical())
		switch {
		case exempt[id] && !same:
			t.Errorf("fig %s runs no checker, yet check changes its key: %s", id, checked.Canonical())
		case exempt[id] && checked.Normalized().Check:
			t.Errorf("fig %s: normalized options still ask for a checker", id)
		case !exempt[id] && same:
			t.Errorf("fig %s: check dropped from the canonical request", id)
		}
	}
	// The sweeps that used to drop Options.Check on the floor now run
	// every network point under the checker, cleanly.
	for _, id := range []string{"8a", "torus", "deflection", "workload"} {
		o := Options{Fig: id, Seed: 1, Cycles: 300, Check: true}
		if _, err := Sweep(context.Background(), id, o); err != nil {
			t.Errorf("fig %s under check: %v", id, err)
		}
	}
}

// TestCheckedPointFailsItsJob drives a Fig. 8a point that must deadlock
// (adaptive routing, one VC, no recovery scheme, a saturating profile):
// with Options.Check the violation fails the job; without it the point
// still completes.
func TestCheckedPointFailsItsJob(t *testing.T) {
	hammer := traffic.AppProfile{Name: "hammer", Rate: 0.9, DataRatio: 0.5}
	o := Options{Cycles: 3000, Warmup: -1, Check: true}.withDefaults()
	_, err := appEDP(context.Background(), hammer, "min_adaptive", "", 1, power.SchemeNone, "fig8a/hammer", o)
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("deadlocking point under check returned %v, want a violation", err)
	}
	o.Check = false
	if _, err := appEDP(context.Background(), hammer, "min_adaptive", "", 1, power.SchemeNone, "fig8a/hammer", o); err != nil {
		t.Fatalf("unchecked point failed: %v", err)
	}
}
