package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	spin "repro"
)

// small returns fast options for CI-scale experiment smoke runs.
func small() Options {
	return Options{Cycles: 3000, Warmup: 300, Seed: 7}
}

func TestFig3SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig3(context.Background(), Options{Cycles: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no entries")
	}
	// Shape: deadlocks require far more than real-application load
	// (~0.01-0.05 flits/node/cycle) whenever they occur at all.
	for _, e := range res.Entries {
		if e.MinRate != 0 && e.MinRate < 0.02 {
			t.Fatalf("%s/%s deadlocks at %.3f — below any plausible onset", e.Topology, e.Pattern, e.MinRate)
		}
	}
	if !strings.Contains(res.String(), "Fig. 3") {
		t.Fatal("missing render header")
	}
}

// TestFig3PollStopsAtBudget: the oracle poll steps a point for exactly
// its cycle budget when the budget is not a multiple of the poll interval.
func TestFig3PollStopsAtBudget(t *testing.T) {
	s, err := spin.New(spin.Config{Topology: "mesh:4x4", Traffic: "uniform_random", Rate: 0.02, VCsPerVNet: 3, Cycles: 700})
	if err != nil {
		t.Fatal(err)
	}
	deadlocked, err := pollDeadlock(context.Background(), s, 700)
	if err != nil || deadlocked {
		t.Fatalf("deadlocked %v, err %v at rate 0.02", deadlocked, err)
	}
	if now := s.Network().Now(); now != 700 {
		t.Fatalf("a 700-cycle budget ran %d cycles", now)
	}
}

func TestFig7SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	figs, err := Fig7(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	fig, ok := figs["uniform_random"]
	if !ok {
		t.Fatal("missing uniform_random figure")
	}
	if len(fig.Series) != 6 {
		t.Fatalf("want 6 curves, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Fatalf("curve %s empty", s.Label)
		}
		// Low-load latency must be sane (zero-load on a 4x4 mesh ~10-30).
		if y := s.Points[0].Y; y < 5 || y > 120 {
			t.Fatalf("curve %s low-load latency %.1f out of range", s.Label, y)
		}
	}
	if fig.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := small()
	o.Cycles = 2000
	figs, err := Fig6(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 5 {
		t.Fatalf("want 5 patterns, got %d", len(figs))
	}
	for pat, fig := range figs {
		if len(fig.Series) != 4 {
			t.Fatalf("%s: want 4 curves, got %d", pat, len(fig.Series))
		}
	}
}

func TestFig8aSmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := small()
	o.Cycles = 5000
	res, err := Fig8a(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) < 10 {
		t.Fatalf("expected the full PARSEC suite, got %d", len(res.Entries))
	}
	// Shape: the 2-VC SPIN router is cheaper at equal delivered traffic,
	// so normalised EDP should be below ~1 on average (paper: 0.82).
	gm := res.GeoMean()
	if gm <= 0 || gm >= 1.05 {
		t.Fatalf("geomean normalised EDP = %.3f, expected < 1", gm)
	}
}

func TestFig8bSmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig8b(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatal("want 3 load points")
	}
	low, high := res.Entries[0], res.Entries[2]
	if low.Flit >= high.Flit && high.Flit > 0.0 {
		// At low load links are mostly idle.
		t.Fatalf("flit utilisation should grow with load: %.3f -> %.3f", low.Flit, high.Flit)
	}
	if low.Idle < 0.9 {
		t.Fatalf("links should be ~idle at 0.01 load, got idle=%.3f", low.Idle)
	}
	// The paper's key claim: SM utilisation stays below a few percent.
	for i, u := range res.Entries {
		if u.SMAll > 0.05 {
			t.Fatalf("SM link utilisation %.3f at rate %.2f exceeds 5%%", u.SMAll, res.Rates[i])
		}
	}
}

func TestFig9SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig9(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 20 {
		t.Fatalf("want 4 setups x 5 rates = 20 entries, got %d", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.FalsePositives > e.Spins {
			t.Fatalf("false positives (%d) exceed spins (%d)", e.FalsePositives, e.Spins)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10()
	byName := map[string]float64{}
	for _, e := range res.Entries {
		byName[e.Design] = e.Normalized
	}
	if byName["westfirst"] != 1.0 {
		t.Fatal("baseline not normalised to 1")
	}
	if !(byName["spin"] < byName["static_bubble"] && byName["static_bubble"] < byName["escape_vc"]) {
		t.Fatalf("overhead ordering wrong: %+v", byName)
	}
	if byName["spin"] > 1.1 {
		t.Fatalf("SPIN overhead %.3f too large (paper: ~4%%)", byName["spin"])
	}
	if byName["escape_vc"] < 1.4 {
		t.Fatalf("escape-VC overhead %.3f too small (paper: ~2x)", byName["escape_vc"])
	}
}

func TestCosts(t *testing.T) {
	c := Costs()
	if len(c.Rows) != 2 {
		t.Fatal("want mesh + dragonfly rows")
	}
	for _, r := range c.Rows {
		if r.AreaSave1v3 < 0.40 || r.AreaSave1v3 > 0.65 {
			t.Fatalf("%s 1v3 area saving %.2f out of the paper's ballpark", r.Topology, r.AreaSave1v3)
		}
	}
	if c.String() == "" {
		t.Fatal("empty render")
	}
}

func TestTables(t *testing.T) {
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 5 {
		t.Fatalf("Table I should have 5 theories, got %d", len(t1.Rows))
	}
	if len(t1.Notes) != 6 {
		t.Fatalf("Table I should carry 6 CDG verifications, got %d", len(t1.Notes))
	}
	for _, n := range t1.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Fatalf("CDG verification failed: %s", n)
		}
	}
	t2 := Table2()
	if t2.LoopBufferBitsMesh != 192 {
		t.Fatalf("mesh loop buffer = %d bits, want 192", t2.LoopBufferBitsMesh)
	}
	t3 := Table3()
	if len(t3.Presets) < 8 {
		t.Fatal("Table III presets missing")
	}
	for _, s := range []string{t1.String(), t2.String(), t3.String()} {
		if s == "" {
			t.Fatal("empty table render")
		}
	}
}

func TestTorusExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := small()
	res, err := Torus(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bubble) != len(res.Rates) || len(res.SPIN) != len(res.Rates) {
		t.Fatal("missing points")
	}
	for i := range res.Rates {
		if res.Bubble[i] <= 0 || res.SPIN[i] <= 0 {
			t.Fatalf("zero latency at rate %.2f", res.Rates[i])
		}
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestDeflectionExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Deflection(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deflection) != len(res.Rates) {
		t.Fatal("missing points")
	}
	// Shape: deflections per flit grow with load.
	if res.AvgDeflect[len(res.AvgDeflect)-1] <= res.AvgDeflect[0] {
		t.Fatalf("deflections should grow with load: %v", res.AvgDeflect)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		Title:  "t",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Y: 3}}},
			{Label: "b", Points: []Point{{X: 1, Y: 5}}},
		},
	}
	out := f.String()
	if !strings.Contains(out, "# t") || !strings.Contains(out, "a") || !strings.Contains(out, "-") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
}

// TestOptionsDefaults is the table over Normalized, the one place a
// sweep's defaults are decided, and over what the sweep then runs.
func TestOptionsDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want Options
	}{
		{"zero value", Options{}, Options{Cycles: 20000, Warmup: 2000}},
		// Zero warmup derives Cycles/10 from the *resolved* cycle count —
		// also when Cycles was set explicitly.
		{"explicit cycles", Options{Cycles: 50000}, Options{Cycles: 50000, Warmup: 5000}},
		// A negative Warmup is the explicit way to ask for no warmup at
		// all; every spelling of it is one request.
		{"no warmup", Options{Cycles: 50000, Warmup: -7}, Options{Cycles: 50000, Warmup: -1}},
		{"telemetry epoch", Options{Telemetry: true}, Options{Cycles: 20000, Warmup: 2000, Telemetry: true, Epoch: 100}},
		{"epoch without telemetry", Options{Epoch: 500}, Options{Cycles: 20000, Warmup: 2000}},
		{"no checker runs for fig 3", Options{Fig: "3", Check: true}, Options{Fig: "3", Cycles: 20000, Warmup: 2000}},
		{"execution knobs carried", Options{Workers: 3, Timeout: time.Second},
			Options{Cycles: 20000, Warmup: 2000, Workers: 3, Timeout: time.Second}},
	} {
		if got := tc.in.Normalized(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Normalized() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// A point of a sweep that asked for no warmup runs none.
	if w := (Options{Warmup: -1}).withDefaults().point(spin.Config{}, "k@0.1").Warmup; w != 0 {
		t.Errorf("no-warmup sweep runs its points with warmup %d", w)
	}
	// The zero value means the scaled topologies; Full the paper's.
	if o := (Options{}); o.meshSpec() != "mesh:4x4" || o.dflySpec() != "dragonfly:4,4,4,16" {
		t.Error("scaled specs wrong")
	}
	if o := (Options{Full: true}); o.meshSpec() != "mesh:8x8" || o.dflySpec() != "dragonfly1024" {
		t.Error("full-size specs wrong")
	}
}
