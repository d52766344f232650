package sim_test

import (
	"reflect"
	"testing"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestIncrementalCheckerParity steps every TestStallIndexParity scenario,
// plus a closed-loop one, twice under the checker: the product, whose
// structural rules run over each cycle's change set with the full audit on
// its cadence, and a twin that is audited in full after every cycle (reading
// Violations does that), which is the checker that swept the whole network
// every cycle. Both must stay clean, report the same liveness figures and —
// the checker only reads — leave the same Stats. An engine change that
// mutates a VC behind markDirty's back shows up as a violation the twin
// stamps cycles before the product does.
func TestIncrementalCheckerParity(t *testing.T) {
	type scenario struct {
		build  func() (*spin.Simulation, error)
		cycles int
	}
	scenarios := map[string]scenario{
		"closed_loop/mesh": {func() (*spin.Simulation, error) {
			return harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 2, VCsPerVNet: 2,
				Traffic: "uniform_random", Rate: 0.3, Seed: 29, Workload: &workload.Spec{Mode: "closed", Window: 4, Think: 8}}.Sim()
		}, 2000},
	}
	for _, sc := range stallScenarios {
		cfg := sc.cfg
		cfg.Seed = 29
		scenarios[sc.name] = scenario{func() (*spin.Simulation, error) { return spin.New(cfg) }, sc.cycles}
	}
	// Bounds no run reaches: the liveness side measures, never fires.
	opt := sim.CheckOptions{StallBound: 1 << 40, RecoveryBound: 1 << 40}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			var nets [2]*sim.Network
			for i := range nets {
				s, err := sc.build()
				if err != nil {
					t.Fatal(err)
				}
				nets[i] = s.Network()
				nets[i].AttachChecker(opt)
			}
			product, twin := nets[0].Checker(), nets[1].Checker()
			for c := 0; c < sc.cycles; c++ {
				nets[0].Step()
				nets[1].Step()
				if vs := twin.Violations(); len(vs) != 0 {
					t.Fatalf("cycle %d: full audit: %v", c, vs)
				}
			}
			if vs := product.Violations(); len(vs) != 0 {
				t.Fatalf("change-set checker: %v", vs)
			}
			if product.MaxStall() != twin.MaxStall() || product.MaxDeadlockSpell() != twin.MaxDeadlockSpell() || product.OracleFirings() != twin.OracleFirings() {
				t.Fatalf("max stall %d/%d, max deadlock spell %d/%d, oracle firings %d/%d differ (change set/full audit)",
					product.MaxStall(), twin.MaxStall(), product.MaxDeadlockSpell(), twin.MaxDeadlockSpell(), product.OracleFirings(), twin.OracleFirings())
			}
			if !reflect.DeepEqual(nets[0].Stats(), nets[1].Stats()) {
				t.Fatalf("stats differ:\nchange set %+v\nfull audit %+v", *nets[0].Stats(), *nets[1].Stats())
			}
			if nets[0].Stats().Ejected == 0 || product.MaxStall() == 0 {
				t.Fatalf("scenario delivered %d packets with max stall %d: nothing was exercised", nets[0].Stats().Ejected, product.MaxStall())
			}
			t.Logf("%d packets, max stall %d, max deadlock spell %d, %d oracle firings", nets[0].Stats().Ejected, product.MaxStall(), product.MaxDeadlockSpell(), product.OracleFirings())
		})
	}
}
