package serve

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prom"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsRenderGolden locks the full text exposition of every
// instrument kind against a golden file: label ordering is stable, an
// empty histogram still emits its complete bucket set including +Inf,
// and large integral counts render without an exponent. Regenerate with
// `go test ./internal/serve -run MetricsRenderGolden -update`.
func TestMetricsRenderGolden(t *testing.T) {
	reg := prom.NewRegistry()

	c := reg.Counter("t_requests_total", "requests by label")
	c.With("endpoint", "simulate", "code", "200").Add(3)
	c.With("code", "500", "endpoint", "simulate").Add(1) // same set, named in another order
	c.With("endpoint", "sweep", "code", "200").Add(1 << 52)

	reg.Counter("t_untouched_total", "a counter nobody incremented")
	reg.CounterFunc("t_sampled_total", "a scrape-time sampled counter", func() float64 { return 42 })

	g := reg.Gauge("t_depth", "a settable gauge")
	g.Set(7)
	reg.GaugeFunc("t_ratio", "a sampled gauge", func() float64 { return math.NaN() })

	h := reg.Histogram("t_latency_seconds", "an observed histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100) // lands in +Inf overflow
	h.With("endpoint", "simulate").Observe(2)
	h.With("endpoint", "big").Observe(1 << 52) // must not render as 4.5e+15

	reg.Histogram("t_empty_seconds", "a histogram nobody observed", []float64{1, 2})

	var buf bytes.Buffer
	reg.Render(&buf)
	got := buf.String()

	golden := filepath.Join("testdata", "metrics_render.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics render drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Spot-check the properties the golden encodes, so a careless
	// -update can't silently bless a regression.
	for _, must := range []string{
		`t_requests_total{code="200",endpoint="simulate"} 3`, // sorted label keys
		"t_requests_total{code=\"200\",endpoint=\"sweep\"} 4503599627370496\n",
		"t_untouched_total 0\n",
		`t_empty_seconds_bucket{le="1"} 0`,
		`t_empty_seconds_bucket{le="+Inf"} 0`,
		"t_empty_seconds_sum 0\n",
		"t_empty_seconds_count 0\n",
		"t_ratio NaN\n",
		"t_latency_seconds_sum{endpoint=\"big\"} 4503599627370496\n",
		`t_latency_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(got, must) {
			t.Errorf("render missing %q", must)
		}
	}
	if strings.Contains(got, "e+") {
		t.Error("render contains exponent notation; large counts must round-trip")
	}
}

// TestMetricsEmptyHistogramTransient pins that the render-only zero
// series of an untouched histogram vanishes once a labeled observation
// arrives — it must never persist as a phantom unlabeled series.
func TestMetricsEmptyHistogramTransient(t *testing.T) {
	reg := prom.NewRegistry()
	h := reg.Histogram("t_h", "h", []float64{1})

	var before bytes.Buffer
	reg.Render(&before)
	if !strings.Contains(before.String(), `t_h_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram lacks +Inf bucket:\n%s", before.String())
	}

	h.With("endpoint", "x").Observe(0.5)
	var after bytes.Buffer
	reg.Render(&after)
	if strings.Contains(after.String(), `t_h_bucket{le="+Inf"} 0`) ||
		strings.Contains(after.String(), "t_h_count 0") {
		t.Errorf("phantom unlabeled zero series survived first observation:\n%s", after.String())
	}
	if !strings.Contains(after.String(), `t_h_bucket{endpoint="x",le="+Inf"} 1`) {
		t.Errorf("labeled series missing:\n%s", after.String())
	}
}
