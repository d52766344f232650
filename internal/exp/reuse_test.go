package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestPointResultSurvivesRewind: a sweep's points run on pooled Simulations,
// rewound between them, so nothing a finished point handed back may alias
// what the next point's Reset and run overwrite. Point k's result — with
// the checker, the histogram and the windowed sampler on, so that every
// optional part is there — is encoded, point k+1 runs on the same network,
// and the encoding must not have moved.
func TestPointResultSurvivesRewind(t *testing.T) {
	o := Options{Cycles: 1500, Seed: 9, Check: true, Telemetry: true, Epoch: 100}.withDefaults()
	cfg := spin.Config{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", VNets: 3, VCsPerVNet: 1, TDD: 16}
	// Everything a point's caller can hold, including what Result's own JSON
	// tags leave out.
	encode := func(r *harness.Result) []byte {
		if r.Stats.Counter("probes_sent") == 0 || r.Latency == nil || len(r.TimeSeries.Samples) == 0 || len(r.Trace) == 0 {
			t.Fatalf("point exercised too little to alias anything: %+v", r.Stats)
		}
		return spin.CanonicalJSON(struct {
			Result     *harness.Result
			Stats      sim.Stats
			Latency    *sim.LatencySummary
			TimeSeries *sim.TimeSeries
			Firings    int64
			Trace      []sim.Event
			Forensics  *sim.ForensicsSnapshot
		}{r, r.Stats, r.Latency, r.TimeSeries, r.OracleFirings, r.Trace, r.Forensics})
	}
	var nets []*sim.Network
	ran := func(s *spin.Simulation) { nets = append(nets, s.Network()) }
	cfg.Rate = 0.45
	first, err := runPoint(context.Background(), cfg, "alias@0.45", o, false, ran)
	if err != nil {
		t.Fatal(err)
	}
	before := encode(first)
	cfg.Rate = 0.6
	second, err := runPoint(context.Background(), cfg, "alias@0.6", o, false, ran)
	if err != nil {
		t.Fatal(err)
	}
	if nets[0] != nets[1] {
		t.Fatal("the second point did not rewind the first one's network")
	}
	if after := encode(first); !bytes.Equal(before, after) {
		t.Fatalf("the first point's result changed under the second point's run:\nbefore %s\nafter  %s", before, after)
	}
	if bytes.Equal(before, encode(second)) {
		t.Fatal("two different points encoded alike: the comparison is blind")
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(before, &decoded); err != nil || len(decoded["Stats"]) == 0 {
		t.Fatalf("encoding is not what the test thinks it is: %v", err)
	}
}
