// Package harness is the randomized-scenario correctness subsystem: it
// generates random valid simulator configurations, runs each one with
// the sim.InvariantChecker attached, cross-checks SPIN-enabled runs
// against the escape-VC baseline on an identical recorded workload (the
// differential oracle), and writes a replayable JSON artifact for every
// violation so failures reproduce deterministically.
//
// The entry points are Generate (random valid Scenario), Drive (the one
// run driver every entry point in the repository steps a built network
// through), Run (one checked, drained execution on it), RunDifferential
// (SPIN vs escape-VC on the same trace), and FuzzScenario in
// fuzz_test.go (the native go test -fuzz driver over the same
// machinery).
package harness

import spin "repro"

// Scenario is the harness's name for a run description, spin.Config: the
// unit it generates, runs, and writes into failure artifacts. Its JSON is
// the /v1/simulate body, and its fields are cmd/spinsim's flags.
type Scenario = spin.Config

// drainBudget is the post-traffic drain bound, the one rule every
// entry point shares through Drive. The default is generous
// on purpose: a deeply oversaturated 1-VC configuration holds O(rate x
// cycles x terminals) flits in its injection queues and drains them at
// its (recovery-limited) saturation throughput, which can take hundreds
// of cycles per offered cycle. Drain returns the moment the network
// empties, so live runs never pay the full budget.
func drainBudget(sc Scenario) int64 {
	if sc.DrainCycles > 0 {
		return sc.DrainCycles
	}
	return 250 * sc.Cycles
}
