package harness

import "testing"

// FuzzScenario is the native fuzzing entry point: the fuzzer picks raw
// selector values, FromBits clamps them into a valid scenario, and the
// scenario runs under the full invariant checker plus the drain
// liveness check. Any violation is a crash for the fuzzer to minimise;
// the failing scenario is also written as a replay artifact.
//
// Run it with: go test -fuzz FuzzScenario -fuzztime 30s ./internal/harness
func FuzzScenario(f *testing.F) {
	// One representative per topology class, cyclic and acyclic routing,
	// plus the spin-heavy saturation corner.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(20), int64(1), uint16(300))  // 3x3 mesh, xy
	f.Add(uint8(1), uint8(3), uint8(1), uint8(0), uint8(0), uint16(50), int64(7), uint16(400))  // 4x4 mesh, min_adaptive+spin, saturated
	f.Add(uint8(4), uint8(2), uint8(4), uint8(1), uint8(1), uint16(35), int64(3), uint16(350))  // torus, cyclic+spin
	f.Add(uint8(5), uint8(1), uint8(0), uint8(1), uint8(0), uint16(30), int64(5), uint16(200))  // dragonfly, cyclic+spin
	f.Add(uint8(6), uint8(0), uint8(2), uint8(0), uint8(1), uint16(40), int64(11), uint16(250)) // jellyfish
	f.Add(uint8(7), uint8(1), uint8(1), uint8(2), uint8(0), uint16(45), int64(13), uint16(300)) // irregular mesh
	f.Fuzz(func(t *testing.T, topoSel, routeSel, patSel, vcs, vnets uint8, ratePct uint16, seed int64, cycles uint16) {
		sc := FromBits(topoSel, routeSel, patSel, vcs, vnets, ratePct, seed, cycles)
		res, err := Run(sc)
		if err != nil {
			// FromBits must be total over valid scenarios; a build error
			// here is a generator bug, not an uninteresting input.
			t.Fatalf("scenario %s failed to build: %v", sc, err)
		}
		if res.Failed() {
			t.Fatal(ReportFailure(artifactDir(), res))
		}
	})
}

// FuzzWorkloadScenario is FuzzScenario with a shaped workload block
// layered on: closed-loop clients (window invariants active), bursty
// sources, or hotspot skew, chosen by the extra selector bytes.
//
// Run it with: go test -fuzz FuzzWorkloadScenario -fuzztime 30s ./internal/harness
func FuzzWorkloadScenario(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(0), uint8(0), uint8(0), uint16(40), int64(7), uint16(300), uint8(0), uint8(3), uint8(4), uint8(8))  // closed loop on 4x4 mesh+spin
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(20), int64(1), uint16(250), uint8(1), uint8(8), uint8(16), uint8(0)) // bursty on 3x3 mesh, xy
	f.Add(uint8(4), uint8(2), uint8(4), uint8(1), uint8(1), uint16(30), int64(3), uint16(300), uint8(2), uint8(20), uint8(1), uint8(0)) // hotspot on torus+spin
	f.Fuzz(func(t *testing.T, topoSel, routeSel, patSel, vcs, vnets uint8, ratePct uint16, seed int64, cycles uint16, mode, wa, wb, wc uint8) {
		sc := WorkloadFromBits(FromBits(topoSel, routeSel, patSel, vcs, vnets, ratePct, seed, cycles), mode, wa, wb, wc)
		if err := sc.Validate(); err != nil {
			t.Fatalf("WorkloadFromBits must be total, got invalid %s: %v", sc, err)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("scenario %s failed to build: %v", sc, err)
		}
		if res.Failed() {
			t.Fatal(ReportFailure(artifactDir(), res))
		}
	})
}
