package mc

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/traffic"
)

// Counterexample replay: a model violation trace is converted into a
// harness scenario whose exact-injection workload reproduces the
// counterexample's packet arrivals in the simulator, with the same
// protocol defect injected via Scenario.Mutation. The differential
// oracle is then just harness.Run: a mutated replay must fail the
// checked run (the simulator agrees the defect is real) and the same
// workload without the mutation must pass (the fault is the mutation,
// not the workload).

// replayTDD is the detection timeout for replay scenarios — small, so a
// counterexample resolves (or provably fails to) in a short run.
const replayTDD = 32

// ReplayBudget is the drain budget for replay scenarios: comfortably
// above the harness recovery bound at replayTDD (40·tdd + 30·routers),
// so an unmutated run has time to recover while a mutated one fails
// fast.
const ReplayBudget = 8000

// TraceScenario converts a counterexample trace into a replayable
// harness scenario. Only the trace's injection actions matter: the
// simulator runs its own timing, so the replay reproduces the workload
// and the mutation, not the model's exact interleaving.
func (in *Instance) TraceScenario(v Violation) (harness.Scenario, error) {
	if in.Mutation == MutSpinUnchecked {
		// The defect lives in the model's own spin abstraction; the
		// simulator has no matching knob to inject.
		return harness.Scenario{}, fmt.Errorf("mc: mutation %s is model-only and has no simulator replay", in.Mutation)
	}
	sc := harness.Scenario{
		Topology:    in.TopoSpec,
		Routing:     in.RoutingName,
		Scheme:      "spin",
		VNets:       1,
		VCsPerVNet:  1,
		VCDepth:     5,
		Seed:        1,
		TDD:         replayTDD,
		Mutation:    in.Mutation.String(),
		DrainCycles: ReplayBudget,
	}
	if in.Mutation == MutNone {
		sc.Mutation = ""
	}
	for step, action := range v.Trace {
		var pkt int
		if _, err := fmt.Sscanf(action, "inject p%d", &pkt); err != nil || !strings.HasPrefix(action, "inject ") {
			continue
		}
		if pkt < 0 || pkt >= len(in.Packets) {
			return harness.Scenario{}, fmt.Errorf("mc: malformed trace action %q", action)
		}
		p := in.Packets[pkt]
		sc.Injections = append(sc.Injections, traffic.TraceEntry{
			// The step index preserves the counterexample's relative
			// injection order; packet length fills the whole VC, the
			// model's single-occupancy abstraction.
			Cycle:  int64(step),
			Src:    p.Src,
			Dst:    p.Dst,
			Length: 5,
			VNet:   0,
		})
	}
	if len(sc.Injections) == 0 {
		return harness.Scenario{}, fmt.Errorf("mc: trace contains no injections")
	}
	sc.Cycles = int64(len(v.Trace)) + 16
	if err := sc.Validate(); err != nil {
		return harness.Scenario{}, fmt.Errorf("mc: replay scenario invalid: %w", err)
	}
	return sc, nil
}
