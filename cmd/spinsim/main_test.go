package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/mc"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// TestRecordFlagsErr pins what -record refuses: it wraps a generator,
// which a -replay run has none of.
func TestRecordFlagsErr(t *testing.T) {
	cases := []struct {
		name           string
		record, replay string
		wantErr        bool
	}{
		{"no trace flags", "", "", false},
		{"record", "t.spintrace", "", false},
		{"replay", "", "t.spintrace", false},
		{"record and replay", "a.spintrace", "b.spintrace", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := recordFlagsErr(tc.record, tc.replay)
			if (err != nil) != tc.wantErr {
				t.Errorf("recordFlagsErr(%q, %q) = %v, wantErr %v", tc.record, tc.replay, err, tc.wantErr)
			}
		})
	}
}

// TestCheckArtifactKeepsWorkloadShaping pins the -check artifact
// contract: the scenario built from the flags — workload block included —
// is the one the run executes and the one scenario-<key>.json replays.
func TestCheckArtifactKeepsWorkloadShaping(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		want  workload.Spec
		vnets int
	}{
		{"closed loop", []string{"-window", "4", "-think", "8", "-hotspot", "0.2:2"},
			workload.Spec{Mode: "closed", Window: 4, Think: 8, HotFrac: 0.2, Hotspots: 2}, 2},
		{"bursts", []string{"-burst", "16:48", "-hotspot", "0.25:1"},
			workload.Spec{BurstOn: 16, BurstOff: 48, HotFrac: 0.25, Hotspots: 1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f simFlags
			fs := flag.NewFlagSet("spinsim", flag.ContinueOnError)
			f.register(fs)
			base := []string{"-topo", "mesh:4x4", "-scheme", "spin", "-rate", "0.3", "-cycles", "400", "-warmup", "40"}
			if err := fs.Parse(append(base, tc.args...)); err != nil {
				t.Fatal(err)
			}
			sc, err := f.config()
			if err != nil {
				t.Fatal(err)
			}
			if sc.Workload == nil || *sc.Workload != tc.want {
				t.Fatalf("flags built workload %+v, want %+v", sc.Workload, tc.want)
			}
			if n := sc.Normalized().VNets; n != tc.vnets {
				t.Fatalf("vnets = %d, want %d", n, tc.vnets)
			}
			s, err := sc.Sim()
			if err != nil {
				t.Fatal(err)
			}
			res, err := harness.Drive(context.Background(), sc, s.Network(), harness.Observe{Check: true, Drain: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("shaped run failed its check: %s", res.Summary())
			}
			path, err := harness.WriteArtifact(t.TempDir(), harness.NewArtifact(res))
			if err != nil {
				t.Fatal(err)
			}
			art, err := harness.LoadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			if art.Scenario.Workload == nil || *art.Scenario.Workload != tc.want {
				t.Fatalf("artifact workload %+v, want %+v", art.Scenario.Workload, tc.want)
			}
			if !harness.CanonicalEqual(art.Scenario, sc) {
				t.Fatalf("artifact replays a different run:\n  %s\n  %s", art.Scenario.Canonical(), sc.Canonical())
			}
		})
	}
}

// TestCheckArtifactKeepsReplayedTrace is the same contract for -replay:
// the trace rides in the scenario, so the artifact of a replayed run
// validates and re-injects the same packets.
func TestCheckArtifactKeepsReplayedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.spintrace")
	var entries []traffic.TraceEntry
	for i := 0; i < 96; i++ {
		entries = append(entries, traffic.TraceEntry{Cycle: int64(i / 4), Src: i % 16, Dst: (i%16 + 1 + i%15) % 16, Length: 1 + 4*(i%2)})
	}
	var buf bytes.Buffer
	if err := traffic.EncodeTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var f simFlags
	fs := flag.NewFlagSet("spinsim", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse([]string{"-topo", "mesh:4x4", "-scheme", "spin", "-cycles", "200", "-warmup", "20", "-replay", path}); err != nil {
		t.Fatal(err)
	}
	sc, err := f.config()
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc harness.Scenario) *harness.Result {
		s, err := sc.Sim()
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Drive(context.Background(), sc, s.Network(), harness.Observe{Check: true, Drain: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() || res.Injected != int64(len(entries)) {
			t.Fatalf("replayed run: %s, injected %d of %d", res.Summary(), res.Injected, len(entries))
		}
		return res
	}
	apath, err := harness.WriteArtifact(t.TempDir(), harness.NewArtifact(run(sc)))
	if err != nil {
		t.Fatal(err)
	}
	art, err := harness.LoadArtifact(apath)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.Scenario.Validate(); err != nil {
		t.Fatalf("artifact scenario does not validate: %v", err)
	}
	run(art.Scenario)
}

// TestReplicateFailureWritesArtifact: -check -seeds N promises a replay
// artifact like a single run does, so a replicate that fails its check
// writes one and the error names it.
func TestReplicateFailureWritesArtifact(t *testing.T) {
	// Cyclic routing, no recovery scheme, saturated: deadlocks for certain.
	sc := harness.Scenario{Topology: "mesh:4x4", Routing: "min_adaptive", Traffic: "bit_complement",
		Rate: 0.6, VCsPerVNet: 1, Seed: 11, Cycles: 1200, Warmup: 100}
	dir := filepath.Join(t.TempDir(), "checkdir")
	err := runReplicates(context.Background(), sc, 2, 1, 0, false, true, dir)
	if err == nil {
		t.Fatal("a deadlocking replicate set passed its check")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "scenario-*.json"))
	if len(files) == 0 {
		t.Fatalf("no artifact in -checkdir; error: %v", err)
	}
	var named string
	for _, f := range files {
		if strings.Contains(err.Error(), f) {
			named = f
		}
	}
	if named == "" {
		t.Fatalf("error names none of %v: %v", files, err)
	}
	art, err := harness.LoadArtifact(named)
	if err != nil {
		t.Fatal(err)
	}
	if art.Scenario.Seed == sc.Seed || len(art.Violations) == 0 {
		t.Fatalf("artifact is not the failed replicate's: seed %d, %d violations", art.Scenario.Seed, len(art.Violations))
	}
}

// TestReplayArtifactExitStatus: -replay-artifact fails (exit 1) exactly
// when the replayed run does. The ring5 no_probe model counterexample
// reproduces in the simulator; the same workload without the mutation
// recovers. Each shape a failure file has had replays: the artifact, and
// the scenario and flight-recorder files it replaced.
func TestReplayArtifactExitStatus(t *testing.T) {
	in, err := mc.NewInstance("ring5", 0, mc.MutNoProbe)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(context.Background(), in, mc.Options{Workers: 2, Bound: 14})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("no counterexample to replay")
	}
	mutated, err := in.TraceScenario(res.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	healthy := mutated
	healthy.Mutation = ""

	dir := t.TempDir()
	oldShape := func(name, schema string, sc harness.Scenario) string {
		b, err := json.Marshal(struct {
			Schema   string           `json:"schema,omitempty"`
			Scenario harness.Scenario `json:"scenario"`
		}{schema, sc})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	artifact, err := harness.WriteArtifact(dir, harness.Artifact{Scenario: mutated})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		fails      bool
	}{
		{"artifact", artifact, true},
		{"flight-recorder file", oldShape("recorder.json", "spin-forensics-v1", mutated), true},
		{"scenario file without the mutation", oldShape("healthy.json", "", healthy), false},
	} {
		var out bytes.Buffer
		failed, err := replayArtifact(&out, tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if failed != tc.fails {
			t.Errorf("%s: replay failed = %v, want %v:\n%s", tc.name, failed, tc.fails, out.String())
		}
		if reproduced := strings.Contains(out.String(), "replay          reproduced: "); reproduced != tc.fails {
			t.Errorf("%s: output does not match the verdict:\n%s", tc.name, out.String())
		}
	}
}

// TestDocumentedCheckReplays: the check → replay pair the package comment
// documents, with -warmup left unset. The run fails its check and writes one
// artifact, and -replay-artifact on that file reproduces the failure instead
// of refusing its scenario (a 10,000-cycle default warmup in a 3,000-cycle
// run once did).
func TestDocumentedCheckReplays(t *testing.T) {
	var f simFlags
	fs := flag.NewFlagSet("spinsim", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse([]string{"-topo", "mesh:4x4", "-vcs", "1", "-rate", "0.9", "-cycles", "3000"}); err != nil {
		t.Fatal(err)
	}
	sc, err := f.config()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := sc.Sim()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Drive(context.Background(), sc, s.Network(), harness.Observe{Check: true, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("the documented run passed its check")
	}
	dir := t.TempDir()
	harness.ReportFailure(dir, res)
	files, _ := filepath.Glob(filepath.Join(dir, "scenario-*.json"))
	if len(files) != 1 {
		t.Fatalf("%d artifacts, want 1", len(files))
	}
	var out bytes.Buffer
	failed, err := replayArtifact(&out, files[0])
	if err != nil || !failed || !strings.Contains(out.String(), "replay          reproduced: ") {
		t.Fatalf("replay: failed = %v, err = %v:\n%s", failed, err, out.String())
	}
}
