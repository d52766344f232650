package main

import (
	"context"
	"flag"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// TestSerialFlagsErr pins the -record/-replay vs -shards rejection:
// trace capture and replay depend on the global injection order, which
// only the serial engine has.
func TestSerialFlagsErr(t *testing.T) {
	cases := []struct {
		name           string
		record, replay string
		shards         int
		wantErr        bool
	}{
		{"no trace flags, serial", "", "", 1, false},
		{"no trace flags, sharded", "", "", 8, false},
		{"record, serial", "t.json", "", 1, false},
		{"replay, serial", "", "t.json", 1, false},
		{"record, sharded", "t.json", "", 2, true},
		{"replay, sharded", "", "t.json", 4, true},
		{"record and replay, sharded", "a.json", "b.json", 2, true},
		{"shards zero counts as serial", "t.json", "", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := serialFlagsErr(tc.record, tc.replay, tc.shards)
			if (err != nil) != tc.wantErr {
				t.Errorf("serialFlagsErr(%q, %q, %d) = %v, wantErr %v",
					tc.record, tc.replay, tc.shards, err, tc.wantErr)
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
			s, err := sc.SimShards(0)
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
