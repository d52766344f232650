package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// manifestMetrics reads the metric names and units BENCHMARK.json
// declares.
func manifestMetrics(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var m struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	index := func(defs []def) map[string]string {
		out := map[string]string{}
		for _, d := range defs {
			if _, dup := out[d.Name]; dup {
				t.Errorf("BENCHMARK.json names %q twice", d.Name)
			}
			out[d.Name] = d.Unit
		}
		return out
	}
	for _, w := range m.Workloads {
		workloads = append(workloads, w.Name)
	}
	return index(m.EndToEnd), index(m.PerLayer), workloads
}

// TestWorkloadsMatchManifest runs every workload at 1/200 size, untraced
// and traced, and fails unless no op fails and the emitted metric names
// and units are exactly the ones BENCHMARK.json declares — so names
// cannot drift from what later issues cite. Nothing here asserts a time.
func TestWorkloadsMatchManifest(t *testing.T) {
	endToEnd, perLayer, names := manifestMetrics(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, names[i], w.name)
		}
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			c := config{seed: 2, seconds: 0.4, scale: 1.0 / 200, traced: traced, outDir: t.TempDir()}
			t0 := time.Now()
			res, err := runWorkload(w.name, c)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s traced=%v: %d ops in %v", w.name, traced, res.Attempted, time.Since(t0).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v emits %q, which BENCHMARK.json does not declare", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v does not emit %q", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q reads %v", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestDisagreement pins -agree's comparison: symmetric in its arguments,
// and a reading that is not a positive number is beyond every bound.
func TestDisagreement(t *testing.T) {
	for _, tc := range []struct {
		a, b  float64
		bound float64
		agree bool
	}{
		{100, 110, 0.25, true},
		{100, 140, 0.25, false},
		{140, 100, 0.25, false}, // the second run better by 40 % is as much a disagreement
		{0, 100, 0.25, false},
		{100, 0, 0.25, false},
		{math.NaN(), 100, 0.25, false},
	} {
		if got := disagreement(tc.a, tc.b) <= tc.bound; got != tc.agree {
			t.Errorf("disagreement(%v, %v) within %v = %v, want %v", tc.a, tc.b, tc.bound, got, tc.agree)
		}
	}
}
