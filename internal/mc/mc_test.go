package mc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the census golden from this run")

// censusRuns are the committed state-space censuses: mesh instances
// exhaust, ring5 is depth-bounded (its full space runs to millions of
// states; the bound keeps the golden fast while still covering the full
// deadlock-detect-recover-deliver arc, diameter 24 > the 20 steps a
// complete recovery needs).
var censusRuns = []struct {
	instance string
	bound    int
}{
	{"mesh2x2", 0},
	{"mesh3x3", 0},
	{"ring5", 24},
}

func checkInstance(t *testing.T, name string, bound, workers int, mut Mutation) *Result {
	t.Helper()
	in, err := NewInstance(name, 0, mut)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(context.Background(), in, Options{Workers: workers, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCensusGoldens pins the state-space census of every registry
// instance: any change to the model's semantics shows up as a
// states/edges/diameter drift against testdata/census.json. Regenerate
// with go test ./internal/mc -run TestCensusGoldens -update. The run
// also asserts the tentpole acceptance property: zero violations on the
// faithful protocol.
func TestCensusGoldens(t *testing.T) {
	var got []Census
	for _, run := range censusRuns {
		res := checkInstance(t, run.instance, run.bound, 4, MutNone)
		if res.Failed() {
			t.Errorf("%s: %d property violations on the faithful protocol; first: %+v",
				run.instance, res.TotalViolations, res.Violations[0])
		}
		got = append(got, res.Census)
	}
	path := filepath.Join("testdata", "census.json")
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	if string(want) != string(gotJSON) {
		t.Errorf("census drifted from golden:\n--- want\n%s\n--- got\n%s", want, gotJSON)
	}
}

// checkIdenticalAcrossWorkers is the parallel-search contract: each
// level's new states are stored in chunk order by one serial merge, so
// the whole result — census, violations with their traces, total — is
// the same bytes at any worker count. It returns the 1-worker result.
func checkIdenticalAcrossWorkers(t *testing.T, instance string, bound int, mut Mutation) *Result {
	t.Helper()
	var base []byte
	var first *Result
	for _, workers := range []int{1, 2, 4, 8} {
		res := checkInstance(t, instance, bound, workers, mut)
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, first = got, res
		} else if !bytes.Equal(got, base) {
			t.Errorf("%s/%s bound %d: result at %d workers differs from 1 worker:\n  1: %s\n  %d: %s",
				instance, mut, bound, workers, base, workers, got)
		}
	}
	return first
}

// TestCensusDeterministicAcrossWorkers: on the unmutated model the
// census, and with it the whole result, is identical at 1, 2, 4 and 8
// workers.
func TestCensusDeterministicAcrossWorkers(t *testing.T) {
	for _, run := range []struct {
		instance string
		bound    int
	}{{"mesh3x3", 0}, {"ring5", 18}} {
		checkIdenticalAcrossWorkers(t, run.instance, run.bound, MutNone)
	}
}

// TestViolationOrderDeterministic: a mutated model reports the same
// violations in the same order, with byte-identical traces, at any
// worker count.
func TestViolationOrderDeterministic(t *testing.T) {
	if r := checkIdenticalAcrossWorkers(t, "ring5", 20, MutSpinUnchecked); len(r.Violations) < 2 {
		t.Fatalf("want several violations to order, got %d", len(r.Violations))
	}
	if r := checkIdenticalAcrossWorkers(t, "ring5", 14, MutNoProbe); len(r.Violations) == 0 {
		t.Fatal("no-probe mutation reported no violation to order")
	}
}

// TestRing5DeadlockIsReachableAndRecovered: the bounded ring5 space
// must actually contain oracle-visible deadlocks (the instance exists to
// exercise recovery), and the liveness pass must prove they all recover.
func TestRing5DeadlockIsReachableAndRecovered(t *testing.T) {
	res := checkInstance(t, "ring5", 20, 4, MutNone)
	if res.Census.Deadlocked == 0 {
		t.Fatal("ring5 reached no deadlocked states; the instance no longer exercises recovery")
	}
	if res.Census.MaxRecoveryDistance == 0 {
		t.Error("deadlocked states exist but max recovery distance is 0")
	}
	if res.Failed() {
		t.Errorf("faithful ring5 has violations: %+v", res.Violations[0])
	}
}

// TestNoProbeMutationFindsLivenessViolation: with detection disabled the
// ring deadlock is a dead state, and the checker must say so.
func TestNoProbeMutationFindsLivenessViolation(t *testing.T) {
	res := checkInstance(t, "ring5", 14, 4, MutNoProbe)
	if !res.Failed() {
		t.Fatal("no_probe mutation produced no violation")
	}
	v := res.Violations[0]
	if v.Kind != "liveness" {
		t.Fatalf("want a liveness violation, got %+v", v)
	}
	if len(v.Trace) == 0 {
		t.Fatal("violation carries no counterexample trace")
	}
}

// TestSpinUncheckedMutationFindsSafetyViolation: skipping the
// chain-closure check before a spin must surface as a duplicate-
// occupancy invariant violation.
func TestSpinUncheckedMutationFindsSafetyViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("explores ~200k states; skipped in -short")
	}
	res := checkInstance(t, "ring5", 26, 8, MutSpinUnchecked)
	if !res.Failed() {
		t.Fatal("spin_unchecked mutation produced no violation")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == "invariant" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("want an invariant violation, got only %+v", res.Violations[0])
	}
}

// TestCounterexampleReplaysThroughSimulator is the differential oracle
// (the tentpole acceptance test): the no_probe counterexample's workload
// must fail the checked simulator run with the same defect injected, and
// the identical workload without the mutation must pass. Model and
// simulator agree the mutation — not the workload — is the bug.
func TestCounterexampleReplaysThroughSimulator(t *testing.T) {
	res := checkInstance(t, "ring5", 14, 4, MutNoProbe)
	if !res.Failed() {
		t.Fatal("no counterexample to replay")
	}
	in, err := NewInstance("ring5", 0, MutNoProbe)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := in.TraceScenario(res.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Injections) != len(in.Packets) {
		t.Fatalf("counterexample injects %d of %d packets", len(sc.Injections), len(in.Packets))
	}

	mutated, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.Failed() {
		t.Fatalf("simulator replay with no_probe did not reproduce the violation: %s", mutated.Summary())
	}
	if mutated.Drained {
		t.Error("mutated replay drained; the deadlock should persist with detection off")
	}

	healthy := sc
	healthy.Mutation = ""
	clean, err := harness.Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("faithful replay of the same workload failed: %s", clean.Summary())
	}
	if clean.Spins == 0 {
		t.Error("faithful replay recovered without a spin; the workload no longer deadlocks")
	}
}

// TestForensicsArtifactFromInducedDeadlock is the flight-recorder
// acceptance test: replaying the ring5 no_probe counterexample through
// the checked harness must trip the flight recorder, the resulting
// failure artifact must carry the SPIN event tail and the
// frozen/spinning-VC chain, and re-running the artifact's scenario must
// reproduce the violation.
func TestForensicsArtifactFromInducedDeadlock(t *testing.T) {
	res := checkInstance(t, "ring5", 14, 4, MutNoProbe)
	if !res.Failed() {
		t.Fatal("no counterexample to replay")
	}
	in, err := NewInstance("ring5", 0, MutNoProbe)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := in.TraceScenario(res.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.Failed() {
		t.Fatalf("replay did not fail: %s", mutated.Summary())
	}
	if mutated.Forensics == nil {
		t.Fatal("failed replay produced no forensics snapshot")
	}
	if len(mutated.Forensics.Events) == 0 {
		t.Error("forensics snapshot retained no SPIN events")
	}
	if len(mutated.Forensics.SpinningVCs) == 0 {
		t.Error("forensics snapshot has an empty VC chain for a persistent deadlock")
	}
	// Artifact parity: testdata holds the scenario artifact's trace tail
	// and the forensics snapshot (events, events_total, spinning_vcs) as
	// the last build before the one-observer-list refactor (PR 12) wrote
	// them; what observers are wired through must never change what the
	// artifacts say, byte for byte.
	for name, v := range map[string]any{
		"ring5_no_probe_trace.json":    harness.NewArtifact(mutated).Trace,
		"ring5_no_probe_snapshot.json": mutated.Forensics,
	} {
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: artifact bytes differ from the checked-in parent output", name)
		}
	}
	if mutated.OracleFirings != 501 {
		t.Errorf("oracle firings %d, want 501 (one per oracle_deadlock event of the run)", mutated.OracleFirings)
	}

	dir := t.TempDir()
	path, err := harness.WriteArtifact(dir, harness.NewArtifact(mutated))
	if err != nil {
		t.Fatal(err)
	}
	art, err := harness.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Scenario.Key() != sc.Key() {
		t.Fatal("artifact scenario does not match the replayed scenario")
	}
	if art.Snapshot == nil || art.CDG == nil {
		t.Fatal("artifact lacks the flight recorder's snapshot or the CDG cut")
	}
	again, err := harness.Run(art.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Failed() {
		t.Fatalf("artifact replay did not reproduce the violation: %s", again.Summary())
	}
	if again.Forensics == nil {
		t.Error("artifact replay produced no fresh snapshot")
	}
}

// TestTraceScenarioRejectsModelOnlyMutation: spin_unchecked lives in the
// model's spin abstraction and must refuse to fabricate a simulator
// replay.
func TestTraceScenarioRejectsModelOnlyMutation(t *testing.T) {
	in, err := NewInstance("ring5", 0, MutSpinUnchecked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.TraceScenario(Violation{Trace: []string{"inject p0"}}); err == nil {
		t.Fatal("TraceScenario accepted a model-only mutation")
	}
}

// TestEncodeDecodeRoundTrip walks the reachable space and checks the
// canonical-encoding contract on real states: Encode → Decode → Encode
// is the identity, and the visited-set key (the full encoding) separates
// states regardless of hash collisions.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, name := range []string{"mesh2x2", "mesh3x3", "ring5"} {
		in, err := NewInstance(name, 0, MutNone)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		frontier := []*State{in.InitialState()}
		for depth := 0; depth < 12 && len(frontier) > 0; depth++ {
			var next []*State
			for _, s := range frontier {
				enc := in.Encode(s)
				if seen[string(enc)] {
					continue
				}
				seen[string(enc)] = true
				dec, err := in.Decode(enc)
				if err != nil {
					t.Fatalf("%s: decode of own encoding failed: %v", name, err)
				}
				if re := in.Encode(dec); string(re) != string(enc) {
					t.Fatalf("%s: encode∘decode not the identity:\n  %x\n  %x", name, enc, re)
				}
				if len(next) < 4096 {
					for _, sc := range in.Successors(s) {
						next = append(next, sc.State)
					}
				}
			}
			frontier = next
		}
		if len(seen) < 10 {
			t.Fatalf("%s: walk covered only %d states", name, len(seen))
		}
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid encoding and
// requires each mutant to either fail decoding or re-encode exactly to
// itself — no byte string may alias a different state's encoding.
func TestDecodeRejectsCorruption(t *testing.T) {
	in, err := NewInstance("ring5", 0, MutNone)
	if err != nil {
		t.Fatal(err)
	}
	s := in.InitialState()
	for i := 0; i < 9; i++ { // drive a few hops in for a non-trivial state
		succs := in.Successors(s)
		if len(succs) == 0 {
			break
		}
		s = succs[i%len(succs)].State
	}
	enc := in.Encode(s)
	for i := range enc {
		for delta := byte(1); delta < 4; delta++ {
			mut := append([]byte(nil), enc...)
			mut[i] += delta
			dec, err := in.Decode(mut)
			if err != nil {
				continue
			}
			if re := in.Encode(dec); string(re) != string(mut) {
				t.Fatalf("byte %d+%d: decode accepted a non-canonical encoding:\n  in  %x\n  out %x", i, delta, mut, re)
			}
		}
	}
}

// TestInstanceRegistry covers the registry's error paths.
func TestInstanceRegistry(t *testing.T) {
	if _, err := NewInstance("hypercube", 0, MutNone); err == nil {
		t.Error("unknown instance accepted")
	}
	if _, err := NewInstance("mesh2x2", 99, MutNone); err == nil {
		t.Error("oversized packet truncation accepted")
	}
	in, err := NewInstance("ring5", 2, MutNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Packets) != 2 {
		t.Errorf("truncation kept %d packets, want 2", len(in.Packets))
	}
	if _, err := MutationByName("chaos_monkey"); err == nil {
		t.Error("unknown mutation name accepted")
	}
}

// TestReplayScenarioValidates: the generated scenario must pass the
// harness's own validation (it travels through artifact files and
// spind).
func TestReplayScenarioValidates(t *testing.T) {
	in, err := NewInstance("ring5", 0, MutNoProbe)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]string, 0, 10)
	for i := 0; i < 5; i++ {
		trace = append(trace, fmt.Sprintf("inject p%d", i), fmt.Sprintf("advance p%d to r%d", i, (i+1)%5))
	}
	sc, err := in.TraceScenario(Violation{Kind: "liveness", Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := sc.Normalized()
	if norm.Rate != 0 || norm.DataFrac != 0 {
		t.Errorf("normalization left synthetic-generator knobs set: %+v", norm)
	}
	var decoded harness.Scenario
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Injections) != 5 || decoded.Mutation != "no_probe" {
		t.Errorf("injection scenario did not survive JSON: %+v", decoded)
	}
}
