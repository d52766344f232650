package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestSweepTelemetryOptIn runs one small figure sweep with telemetry on
// and asserts every point carries a consistent percentile summary and a
// windowed time-series, that the shared JSON encoder exposes them, and
// that the same sweep without telemetry encodes no trace of either (the
// goldens-stay-byte-identical contract, checked structurally here and
// byte-exactly by TestSweepJSONSchemaGolden/TestHotPathGolden).
func TestSweepTelemetryOptIn(t *testing.T) {
	o := small()
	o.Telemetry = true
	o.Epoch = 200
	fig, err := Fig7(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, f := range fig {
		for _, s := range f.Series {
			for _, p := range s.Points {
				points++
				if p.Latency == nil || p.TS == nil {
					t.Fatalf("%s point %+v missing telemetry", s.Label, p)
				}
				if p.Latency.Count <= 0 {
					t.Fatalf("%s: empty latency summary", s.Label)
				}
				if !(p.Latency.P50 <= p.Latency.P95 && p.Latency.P95 <= p.Latency.P99) {
					t.Fatalf("%s: percentiles not monotone: %+v", s.Label, p.Latency)
				}
				if float64(p.Latency.Max) < p.Latency.P99 {
					t.Fatalf("%s: max %d below p99 %g", s.Label, p.Latency.Max, p.Latency.P99)
				}
				if p.TS.Window != 200 || len(p.TS.Samples) == 0 {
					t.Fatalf("%s: bad time-series window=%d samples=%d", s.Label, p.TS.Window, len(p.TS.Samples))
				}
			}
		}
	}
	if points == 0 {
		t.Fatal("sweep produced no points")
	}

	var buf bytes.Buffer
	if err := EncodeJSON(&buf, fig); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p50"`, `"p95"`, `"p99"`, `"schema": "spin-timeseries-v1"`, `"link_busy"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("telemetry JSON missing %s", want)
		}
	}

	plain, err := Fig7(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := EncodeJSON(&buf, plain); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"Latency", "TS", "p95", "schema"} {
		if strings.Contains(buf.String(), banned) {
			t.Errorf("telemetry-free sweep encoding leaks %q", banned)
		}
	}
}

// TestSweepRequestTelemetryNormalization pins the canonical-form rules:
// epoch without telemetry is scrubbed, telemetry defaults its epoch, and
// the two spellings of the default share one canonical encoding.
func TestSweepRequestTelemetryNormalization(t *testing.T) {
	r := Options{Fig: "7", Epoch: 500}.Normalized()
	if r.Epoch != 0 {
		t.Errorf("epoch without telemetry kept: %d", r.Epoch)
	}
	a := Options{Fig: "7", Telemetry: true}.Canonical()
	b := Options{Fig: "7", Telemetry: true, Epoch: 100}.Canonical()
	if string(a) != string(b) {
		t.Errorf("default-epoch spellings diverge:\n%s\n%s", a, b)
	}
	if err := (Options{Fig: "7", Epoch: -1}).Validate(); err == nil {
		t.Error("negative epoch accepted")
	}
}
