package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
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
			sc, err := f.scenario()
			if err != nil {
				t.Fatal(err)
			}
			if sc.Workload == nil || *sc.Workload != tc.want {
				t.Fatalf("flags built workload %+v, want %+v", sc.Workload, tc.want)
			}
			if sc.VNets != tc.vnets {
				t.Fatalf("vnets = %d, want %d", sc.VNets, tc.vnets)
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
	sc, err := f.scenario()
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
