package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestBuildCDGCutAdaptiveMeshIsCyclic(t *testing.T) {
	cut := BuildCDGCut(Scenario{Topology: "mesh:4x4", Routing: "min_adaptive", VCsPerVNet: 1})
	if cut == nil {
		t.Fatal("no CDG cut for min_adaptive on a mesh")
	}
	if cut.Cycles == 0 || cut.LargestCycle == 0 {
		t.Fatalf("fully-adaptive mesh CDG reported acyclic: %+v", cut)
	}
	if len(cut.LargestCycleChannels) == 0 || len(cut.LargestCycleChannels) > cdgCutMaxChannels {
		t.Fatalf("largest-cycle channel list has %d entries, want 1..%d",
			len(cut.LargestCycleChannels), cdgCutMaxChannels)
	}
	for _, ch := range cut.LargestCycleChannels {
		if ch.Src == ch.Dst {
			t.Fatalf("channel %+v is a self-link", ch)
		}
	}
	if !strings.Contains(cut.Summary, "cyclic") {
		t.Fatalf("summary %q does not mention cyclicity", cut.Summary)
	}
}

func TestBuildCDGCutXYIsAcyclic(t *testing.T) {
	cut := BuildCDGCut(Scenario{Topology: "mesh:4x4", Routing: "xy", VCsPerVNet: 1})
	if cut == nil {
		t.Fatal("no CDG cut for xy on a mesh")
	}
	if cut.Cycles != 0 || cut.LargestCycle != 0 || len(cut.LargestCycleChannels) != 0 {
		t.Fatalf("XY mesh CDG reported cyclic: %+v", cut)
	}
}

func TestBuildCDGCutUnsupportedRoutingIsNil(t *testing.T) {
	if cut := BuildCDGCut(Scenario{Topology: "mesh:4x4", Routing: "not_a_routing"}); cut != nil {
		t.Fatalf("unsupported routing produced a cut: %+v", cut)
	}
	if cut := BuildCDGCut(Scenario{Topology: "bogus:topo", Routing: "xy"}); cut != nil {
		t.Fatalf("unbuildable topology produced a cut: %+v", cut)
	}
}

// TestArtifactWriteLoadRoundTrip: LoadArtifact reads back whole what
// WriteArtifact wrote, and both shapes the one artifact replaced — a
// scenario file (no schema) and a flight-recorder file — with nothing
// dropped. Any other schema is refused.
func TestArtifactWriteLoadRoundTrip(t *testing.T) {
	res := &Result{
		Scenario: Scenario{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
			Traffic: "uniform", Rate: 0.3, Seed: 7, Cycles: 100},
		Violations: []sim.Violation{{Cycle: 42, Rule: "recovery", Detail: "stuck"}},
		Drained:    true,
		Trace:      []sim.Event{{Cycle: 41, Kind: sim.EvOracleDeadlock, Router: 1, Arg: 2}},
		Forensics: &sim.ForensicsSnapshot{
			Cycle:  42,
			Reason: "recovery",
			Total:  3,
			Events: []sim.Event{{Cycle: 40, Kind: sim.EvSpinStart, Router: 1}},
			SpinningVCs: []sim.VCForensics{
				{Router: 1, Port: 2, VC: 0, Spinning: true, OutPort: 1, DownRouter: 2, DownPort: 3, DownVC: 0},
			},
		},
	}
	dir := t.TempDir()
	path, err := WriteArtifact(dir, NewArtifact(res))
	if err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != artifactSchema {
		t.Fatalf("schema %q, want %s", art.Schema, artifactSchema)
	}
	if art.Scenario.Key() != res.Scenario.Key() || art.Summary != res.Summary() {
		t.Fatal("scenario or verdict did not survive the round trip")
	}
	if !reflect.DeepEqual(art.Trace, res.Trace) || !reflect.DeepEqual(art.Snapshot, res.Forensics) {
		t.Fatalf("event lists did not survive: trace %+v, snapshot %+v", art.Trace, art.Snapshot)
	}
	if art.CDG == nil || art.CDG.Cycles == 0 {
		t.Fatalf("artifact lacks the cyclic CDG cut: %+v", art.CDG)
	}
	if art.Repro != "spinsim -replay-artifact "+path {
		t.Fatalf("repro %q does not replay %s", art.Repro, path)
	}

	const scenario = `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform","rate":0.3,"seed":7,"cycles":100}`
	const violations = `[{"cycle":42,"rule":"recovery_bound","detail":"r1 p2 vc0 deadlocked"}]`
	for name, old := range map[string]string{
		"scenario": `{"scenario":` + scenario + `,"violations":` + violations + `,
			"notes":["drain incomplete: 10 injected, 4 ejected"],
			"trace":[{"cycle":41,"kind":"oracle_deadlock","router":1,"arg":2}],"repro":"rerun"}`,
		"forensics": `{"schema":"spin-forensics-v1","scenario":` + scenario + `,"summary":"1 violation(s)","violations":` + violations + `,
			"snapshot":{"cycle":42,"reason":"recovery_bound","events_total":3,
				"events":[{"cycle":40,"kind":"spin_start","router":1}],
				"spinning_vcs":[{"router":1,"port":2,"vc":0,"spinning":true,"buf_len":5,"out_port":1,"down_router":2,"down_port":3,"down_vc":0}]},
			"cdg":{"routing":"min_adaptive","summary":"cyclic","channels":48,"edges":96,"cycles":1,"largest_cycle":2,
				"largest_cycle_channels":[{"link":0,"vc":0,"src":0,"src_port":1,"dst":1,"dst_port":2}]},
			"repro":"rerun"}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		art, err := LoadArtifact(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Nothing dropped: the loaded artifact encodes every field of the
		// file to the value the file held.
		var want, got map[string]any
		if err := json.Unmarshal([]byte(old), &want); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if !reflect.DeepEqual(got[k], v) {
				t.Errorf("%s file: %q read as %v, the file held %v", name, k, got[k], v)
			}
		}
	}

	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"schema":"spin-artifact-v0","scenario":`+scenario+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(other); err == nil || !strings.Contains(err.Error(), "spin-artifact-v0") {
		t.Fatalf("LoadArtifact of an unknown schema: %v, want a refusal naming it", err)
	}
}

// TestReportFailureWritesForensicsArtifact: the one artifact ReportFailure
// writes carries the flight recorder's snapshot and the drain verdict, and
// the report names it.
func TestReportFailureWritesForensicsArtifact(t *testing.T) {
	res := &Result{
		Scenario:  Scenario{Topology: "mesh:4x4", Routing: "xy", Traffic: "uniform", Rate: 0.1, Seed: 3, Cycles: 50},
		Drained:   false,
		Injected:  10,
		Ejected:   4,
		Forensics: &sim.ForensicsSnapshot{Cycle: 50, Reason: "drain_incomplete"},
	}
	dir := t.TempDir()
	msg := ReportFailure(dir, res)
	path := filepath.Join(dir, "scenario-"+res.Scenario.Key()+".json")
	if !strings.Contains(msg, path) {
		t.Fatalf("report does not mention the artifact %s:\n%s", path, msg)
	}
	art, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Snapshot == nil || art.Snapshot.Reason != "drain_incomplete" {
		t.Fatalf("artifact snapshot %+v, want drain_incomplete", art.Snapshot)
	}
	if len(art.Notes) == 0 || !strings.Contains(art.Notes[0], "drain incomplete") {
		t.Fatalf("notes %v lack the drain verdict", art.Notes)
	}
}
