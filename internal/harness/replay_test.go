package harness

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// replayDigest is what an exact-workload run is pinned by.
type replayDigest struct {
	Injected   int64 `json:"injected"`
	Ejected    int64 `json:"ejected"`
	LatencySum int64 `json:"latency_sum"`
	MaxLatency int64 `json:"max_latency"`
	Spins      int64 `json:"spins"`
}

// traceB64 encodes time-ordered entries as a trace_b64 value.
func traceB64(t testing.TB, entries []traffic.TraceEntry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := traffic.EncodeTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// TestReplayParityWithParent asserts digests captured at the commit
// before the replay engines were merged (PR 13, when injections ran
// through the per-source-cursor traffic.Replay and the differential
// baseline had the recording attached by hand): testdata/
// replay_parity.json holds a time-ordered injections scenario, one whose
// second source lists earlier cycles after later ones, and one
// RunDifferential pair, each with the numbers that build produced.
func TestReplayParityWithParent(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("testdata/replay_parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Replays []struct {
			Name     string       `json:"name"`
			Scenario Scenario     `json:"scenario"`
			Want     replayDigest `json:"want"`
		} `json:"replays"`
		Differential struct {
			Scenario  Scenario     `json:"scenario"`
			TraceLen  int          `json:"trace_len"`
			Delivered int          `json:"delivered"`
			Primary   replayDigest `json:"primary"`
			Baseline  replayDigest `json:"baseline"`
		} `json:"differential"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, r := range want.Replays {
		if err := r.Scenario.Validate(); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		s, err := r.Scenario.Sim()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Drive(context.Background(), r.Scenario, s.Network(), Observe{Check: true, Drain: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("%s: %s", r.Name, res.Summary())
		}
		st := s.Network().Stats()
		if got := (replayDigest{st.Injected, st.Ejected, st.LatencySum, st.MaxLatency, st.Spins}); got != r.Want {
			t.Errorf("%s: %+v, the parent produced %+v", r.Name, got, r.Want)
		}
	}
	wd := want.Differential
	d, err := RunDifferential(wd.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() || len(d.Mismatches) != 0 {
		t.Fatalf("differential: %s", d.Summary())
	}
	if d.TraceLen != wd.TraceLen || len(d.Baseline.Delivered) != wd.Delivered || len(d.Primary.Delivered) != wd.Delivered {
		t.Errorf("differential: trace %d, delivered %d/%d; the parent recorded %d and delivered %d",
			d.TraceLen, len(d.Primary.Delivered), len(d.Baseline.Delivered), wd.TraceLen, wd.Delivered)
	}
	// Injected/Ejected/Spins after the drain, latency at the end of the
	// traffic phase (Result.Stats).
	digest := func(r *Result) replayDigest {
		return replayDigest{r.Injected, r.Ejected, r.Stats.LatencySum, r.Stats.MaxLatency, r.Spins}
	}
	if got := digest(d.Primary); got != wd.Primary {
		t.Errorf("differential primary: %+v, the parent produced %+v", got, wd.Primary)
	}
	if got := digest(d.Baseline); got != wd.Baseline {
		t.Errorf("differential baseline: %+v, the parent produced %+v", got, wd.Baseline)
	}
}

// TestExactWorkloadBeyondNetworkIsAnError is the outside-input
// regression: vc_depth 8 admits 7-flit packets as far as the buffers go,
// but the engine caps packets at MaxPktLen (5). Both exact-workload
// forms must turn such an entry into an error — injections before the
// first cycle, a streamed trace from the run — never a panic in the
// injector.
func TestExactWorkloadBeyondNetworkIsAnError(t *testing.T) {
	t.Parallel()
	body := `{"topology":"mesh:4x4","routing":"xy","cycles":100,"vc_depth":8,"injections":[{"cycle":0,"src":0,"dst":5,"length":7,"vnet":0}]}`
	sc, err := DecodeScenario(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("the request shape is fine: %v", err)
	}
	if _, err := sc.Sim(); err == nil || !strings.Contains(err.Error(), "length 7 outside (0,5]") {
		t.Fatalf("Sim() error = %v, want the length bound", err)
	}
	if _, err := Run(sc); err == nil {
		t.Fatal("Run accepted a 7-flit injection")
	}

	streamed := sc
	streamed.TraceB64, streamed.Injections = traceB64(t, sc.Injections), nil
	if err := streamed.Validate(); err != nil {
		t.Fatalf("the trace is well-formed: %v", err)
	}
	if _, err := Run(streamed); err == nil || !strings.Contains(err.Error(), "length 7 outside (0,5]") {
		t.Fatalf("Run error = %v, want the length bound", err)
	}
}

// TestValidateTraceBoundedMemory: trace_b64 is validated on the request
// goroutine before any limit applies, and a repetitive trace compresses
// hundreds of times over, so validation must stream. A 3-million-entry
// trace (a ~40 KB upload that would decode to ~120 MB of entries) has to
// validate in a few MB of heap.
func TestValidateTraceBoundedMemory(t *testing.T) {
	const entries = 3_000_000
	var buf bytes.Buffer
	tw := traffic.NewTraceWriter(&buf)
	for i := 0; i < entries; i++ {
		if err := tw.Add(traffic.TraceEntry{Cycle: int64(i / 16), Src: 0, Dst: 1, Length: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Topology: "mesh:4x4", Routing: "xy", Cycles: 100, TraceB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	t.Logf("%d entries in a %d-byte trace_b64", entries, len(sc.TraceB64))

	// TotalAlloc, not HeapAlloc: a materialised trace is garbage by the
	// time Validate returns, and a collection mid-call would hide it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("Validate allocated %.1f MB", float64(allocated)/(1<<20))
	const budget = 8 << 20
	if allocated > budget {
		t.Fatalf("Validate allocated %d bytes for a %d-entry trace (budget %d): it does not stream", allocated, entries, budget)
	}
}
