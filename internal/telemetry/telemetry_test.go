package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"

	spin "repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// saturatedSPIN builds the acceptance-criteria configuration: mesh-8x8
// with fully adaptive FAvORS routing, a single VC, and the SPIN scheme,
// driven past saturation so deadlocks form and the probe→move recovery
// protocol actually runs.
func saturatedSPIN(t *testing.T) *spin.Simulation {
	t.Helper()
	s, err := spin.New(spin.Config{
		Topology:   "mesh:8x8",
		Routing:    "favors_min",
		Scheme:     "spin",
		Traffic:    "uniform_random",
		Rate:       0.40,
		VCsPerVNet: 1,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecorderCapturesSPINSequence runs the saturated config and asserts
// the recorder saw at least one complete probe→move SPIN sequence — a
// probe send followed (later or same cycle) by a move send — plus an
// actual spin executing (spin_start) and the recovery completing
// (spin_end).
func TestRecorderCapturesSPINSequence(t *testing.T) {
	s := saturatedSPIN(t)
	rec := sim.NewEventRing(1<<16, sim.DefaultMask)
	s.Network().AddObserver(rec.Mask(), rec)
	s.Run(6000)

	var probeCycle, moveCycle int64 = -1, -1
	var spinStarts, spinEnds int
	for _, e := range rec.Events() {
		switch {
		case e.Kind == sim.EvSMSend && e.SM == "probe" && probeCycle < 0:
			probeCycle = e.Cycle
		case e.Kind == sim.EvSMSend && e.SM == "move" && probeCycle >= 0 && moveCycle < 0:
			moveCycle = e.Cycle
		case e.Kind == sim.EvSpinStart:
			spinStarts++
		case e.Kind == sim.EvSpinEnd:
			spinEnds++
		}
	}
	if probeCycle < 0 || moveCycle < 0 {
		t.Fatalf("no complete probe→move sequence recorded (probe at %d, move at %d; %d events)",
			probeCycle, moveCycle, rec.Len())
	}
	if moveCycle < probeCycle {
		t.Fatalf("move (cycle %d) recorded before first probe (cycle %d)", moveCycle, probeCycle)
	}
	if spinStarts == 0 || spinEnds == 0 {
		t.Errorf("expected spin executions, got %d starts / %d ends", spinStarts, spinEnds)
	}
	if got, want := s.Spins(), int64(0); got == want {
		t.Errorf("saturated SPIN run performed no spins — config no longer deadlocks")
	}
}

// TestChromeTraceSchema validates the exported trace-event JSON: the
// document shape, required per-event fields, legal phases, and async
// begin/end pairing (every packet "e" has an earlier "b" with the same
// id, and the pair shares cat and name as the matching rules require).
func TestChromeTraceSchema(t *testing.T) {
	s := saturatedSPIN(t)
	rec := sim.NewEventRing(1<<16, sim.DefaultMask)
	s.Network().AddObserver(rec.Mask(), rec)
	tele := s.Network().AttachTelemetry(sim.TelemetryOptions{Window: 100})
	s.Run(3000)
	tele.Flush()

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, rec.Events(), tele.TimeSeries()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("trace is not a traceEvents document: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents array")
	}

	legalPh := map[string]bool{"b": true, "e": true, "n": true, "i": true, "C": true, "M": true}
	type evt struct {
		Ph   string  `json:"ph"`
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ts   *int64  `json:"ts"`
		Pid  *int    `json:"pid"`
		Tid  *int    `json:"tid"`
		ID   *uint64 `json:"id"`
	}
	began := map[uint64]int{} // packet id -> index of its "b"
	counts := map[string]int{}
	for i, raw := range doc.TraceEvents {
		b, _ := json.Marshal(raw)
		var e evt
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event %d missing name/ph: %s", i, b)
		}
		if !legalPh[e.Ph] {
			t.Fatalf("event %d has phase %q outside the exporter's vocabulary", i, e.Ph)
		}
		if e.Ph != "M" && (e.Ts == nil || e.Pid == nil) {
			t.Fatalf("event %d missing ts/pid: %s", i, b)
		}
		counts[e.Ph]++
		switch e.Ph {
		case "b":
			if e.ID == nil {
				t.Fatalf("async begin %d without id", i)
			}
			began[*e.ID] = i
		case "e":
			if e.ID == nil {
				t.Fatalf("async end %d without id", i)
			}
			if _, ok := began[*e.ID]; !ok {
				t.Fatalf("async end %d (id %d) has no earlier begin", i, *e.ID)
			}
		}
	}
	for _, ph := range []string{"b", "e", "i", "C", "M"} {
		if counts[ph] == 0 {
			t.Errorf("trace contains no %q events", ph)
		}
	}
}

// TestEventKindJSONRoundTrip locks the name vocabulary artifacts depend
// on: marshal → unmarshal is identity, and unknown names are rejected.
func TestEventKindJSONRoundTrip(t *testing.T) {
	kinds := []sim.EventKind{
		sim.EvPacketQueued, sim.EvPacketInject, sim.EvPacketEject,
		sim.EvFlitInject, sim.EvFlitEject,
		sim.EvSMSend, sim.EvSMDrop, sim.EvSMDeliver,
		sim.EvVCFreeze, sim.EvVCUnfreeze, sim.EvSpinStart, sim.EvSpinEnd,
		sim.EvOracleDeadlock,
	}
	for _, k := range kinds {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back sim.EventKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if back != k {
			t.Errorf("round trip %s -> %s", k, back)
		}
	}
	var k sim.EventKind
	if err := json.Unmarshal([]byte(`"no_such_event"`), &k); err == nil {
		t.Error("unknown kind name accepted")
	}
}
