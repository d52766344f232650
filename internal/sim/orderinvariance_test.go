package sim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// phase2Order is one walk the oracle compares; a nil permute leaves the
// engine's own ascending order alone.
type phase2Order struct {
	name    string
	permute func([]*sim.Router)
}

// phase2Orders are the ascending walk, its reverse, and two seeded
// shuffles redrawn every cycle.
func phase2Orders() []phase2Order {
	shuffle := func(seed int64) func([]*sim.Router) {
		rng := rand.New(rand.NewSource(seed))
		return func(rs []*sim.Router) {
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		}
	}
	return []phase2Order{
		{"identity", nil},
		{"reverse", slices.Reverse[[]*sim.Router]},
		{"shuffle1", shuffle(1)},
		{"shuffle2", shuffle(2)},
	}
}

// orderOutcome is what a run computed, with the order events came in left
// out on purpose: the final Stats (Counters included) and the cycle every
// packet ejected at.
type orderOutcome struct {
	stats  sim.Stats
	ejects map[uint64]int64
}

// ejectLog records (packet ID, eject cycle) off the event stream.
type ejectLog map[uint64]int64

func (l ejectLog) Event(e sim.Event) { l[e.Packet] = e.Cycle }

// runOrders builds a fresh network per phase-2 order and steps each for
// cycles; outcome i belongs to phase2Orders()[i], the ascending walk first.
func runOrders(t *testing.T, build func(t *testing.T) *sim.Network, cycles int64) []orderOutcome {
	t.Helper()
	var outs []orderOutcome
	for _, o := range phase2Orders() {
		n, log := build(t), ejectLog{}
		n.AddObserver(sim.MaskOf(sim.EvPacketEject), log)
		sim.PermutePhase2(n, o.permute)
		n.Run(cycles)
		outs = append(outs, orderOutcome{*n.Stats(), log})
	}
	return outs
}

// requireOrderInvariant fails on every order whose outcome differs from the
// ascending walk's, which it returns.
func requireOrderInvariant(t *testing.T, build func(t *testing.T) *sim.Network, cycles int64) orderOutcome {
	t.Helper()
	outs := runOrders(t, build, cycles)
	want := outs[0]
	for i, got := range outs[1:] {
		name := phase2Orders()[i+1].name
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%s: stats differ from the ascending walk:\n got %+v\nwant %+v", name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.ejects, want.ejects) {
			t.Errorf("%s: %d packets ejected, %d under the ascending walk, or some at other cycles", name, len(got.ejects), len(want.ejects))
		}
	}
	return want
}

// TestPhase2OrderInvariance is the engine contract's oracle: phase 2 may
// read another router only through commit snapshots and published views and
// may write it only through commit, so the order its routers are walked in
// cannot change what a run computes. A stage that read a neighbour's live
// state would still be deterministic under the ascending walk, and so
// invisible to every golden; here it shows as a run that differs under
// reverse or shuffled order. Phase 2 visits each router once and runs all
// its stages there, so a live read from any stage, an agent's Tick as much
// as switch allocation, lands before some neighbours' visits and after
// others', and is covered.
//
// Ring bubble and SPIN's CountTruth accounting are outside the contract
// (both scan live state network-wide by design) and are not listed.
func TestPhase2OrderInvariance(t *testing.T) {
	stream := make([]traffic.TraceEntry, 1200)
	rng := rand.New(rand.NewSource(5))
	for i := range stream {
		src := rng.Intn(64)
		stream[i] = traffic.TraceEntry{Cycle: int64(i / 6), Src: src, Dst: (src + 1 + rng.Intn(63)) % 64, Length: 1 + 4*rng.Intn(2)}
	}
	cases := []struct {
		name      string
		sc        harness.Scenario
		wantSpins bool
	}{
		{"mesh/spin_1vc", harness.Scenario{Topology: "mesh:8x8", Routing: "favors_min", Scheme: "spin", Traffic: "uniform_random", Rate: 0.40, VCsPerVNet: 1, Cycles: 1500}, true},
		{"mesh/spin_3vc", harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.28, VCsPerVNet: 3, Cycles: 1500}, false},
		{"torus/spin_1vc", harness.Scenario{Topology: "torus:8x8", Routing: "favors_min", Scheme: "spin", Traffic: "bit_complement", Rate: 0.10, VCsPerVNet: 1, Cycles: 4000}, true},
		{"torus/spin_3vc", harness.Scenario{Topology: "torus:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.45, VCsPerVNet: 3, Cycles: 1500}, false},
		{"dragonfly/spin_1vc", harness.Scenario{Topology: "dragonfly:4,4,4,16", Routing: "favors_nmin", Scheme: "spin", Traffic: "uniform_random", Rate: 0.30, VNets: 3, VCsPerVNet: 1, Cycles: 1500}, false},
		{"dragonfly/spin_3vc", harness.Scenario{Topology: "dragonfly:4,4,4,16", Routing: "ugal_spin", Scheme: "spin", Traffic: "uniform_random", Rate: 0.20, VCsPerVNet: 3, Cycles: 1200}, false},
		{"irregular/spin", harness.Scenario{Topology: "irregular:6x6:8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.30, VNets: 3, VCsPerVNet: 1, Cycles: 2000}, false},
		{"mesh/static_bubble", harness.Scenario{Topology: "mesh:8x8", Scheme: "static_bubble", Traffic: "transpose", Rate: 0.40, VNets: 3, VCsPerVNet: 2, TDD: 32, Cycles: 2000}, false},
		{"mesh/escape_vc", harness.Scenario{Topology: "mesh:8x8", Routing: "escape_vc", Traffic: "bit_complement", Rate: 0.40, VNets: 3, VCsPerVNet: 2, Cycles: 1500}, false},
		{"mesh/closed_loop", harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.40, VNets: 2, VCsPerVNet: 2, Cycles: 2000,
			Workload: &workload.Spec{Mode: "closed", Window: 4, ReqLen: 1, RespLen: 5, Think: 8}}, false},
		{"mesh/burst_hotspot", harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.25, VCsPerVNet: 2, Cycles: 2000,
			Workload: &workload.Spec{BurstOn: 16, BurstOff: 48, HotFrac: 0.2, Hotspots: 2}}, false},
		{"mesh/stream_replay", harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 2, Cycles: 600, Injections: stream}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := tc.sc
			sc.Seed = 23
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			out := requireOrderInvariant(t, func(t *testing.T) *sim.Network {
				s, err := sc.Sim()
				if err != nil {
					t.Fatal(err)
				}
				return s.Network()
			}, sc.Cycles)
			if len(out.ejects) == 0 || out.stats.LinkTraversals == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if tc.wantSpins && out.stats.Spins == 0 {
				t.Fatal("1-VC SPIN scenario never spun")
			}
			t.Logf("%d packets, %d spins, counters %v", len(out.ejects), out.stats.Spins, out.stats.Counters)
		})
	}
}

// liveReadScheme is the planted violation: its agents read how full a
// neighbour's input port is through the live VC.Len() — which that
// neighbour lowers in its own switch allocation, so the answer depends on
// whether it was visited first — where the contract demands VC.SnapLen().
// The read sits in FilterSend (switch allocation) or, with inTick, in Tick,
// where it adds what it saw to a Stats counter.
type liveReadScheme struct{ snapshot, inTick bool }

func (s *liveReadScheme) Name() string { return "live_read" }

func (s *liveReadScheme) Attach(n *sim.Network) {
	for i := 0; i < n.NumRouters(); i++ {
		n.SetAgent(i, &liveReadAgent{scheme: s, r: n.Router(i)})
	}
}

// held is how many flits the input port of down at port buffers, as the
// scheme reads it.
func (s *liveReadScheme) held(down *sim.Router, port int) int {
	held := 0
	for k := 0; k < down.VCsPerPort(); k++ {
		if v := down.VC(port, k); s.snapshot {
			held += v.SnapLen()
		} else {
			held += v.Len()
		}
	}
	return held
}

type liveReadAgent struct {
	sim.BaseAgent
	scheme *liveReadScheme
	r      *sim.Router
}

func (a *liveReadAgent) Quiescent() bool { return true }

func (a *liveReadAgent) Tick() {
	if !a.scheme.inTick {
		return
	}
	seen := 0
	for p := a.r.LocalPorts(); p < a.r.Radix(); p++ {
		if down, port, ok := a.r.Downstream(p); ok {
			seen += a.scheme.held(down, port)
		}
	}
	a.r.Stats().Count("downstream_flits_seen", int64(seen))
}

func (a *liveReadAgent) FilterSend(_ *sim.VC, _ int, dvc *sim.VC) bool {
	return a.scheme.inTick || a.scheme.held(dvc.Router(), dvc.Port()) <= 5
}

// requireOracleCatches proves the oracle has teeth for one planted read:
// reading live state must make some permuted walk differ from the ascending
// one, and the same agent reading snapshots must not.
func requireOracleCatches(t *testing.T, inTick bool) {
	t.Helper()
	build := func(snapshot bool) func(*testing.T) *sim.Network {
		return func(t *testing.T) *sim.Network {
			m, err := topology.NewMesh(8, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := sim.NewNetwork(sim.Config{
				Topology:   m,
				Routing:    &routing.XY{Mesh: m},
				Scheme:     &liveReadScheme{snapshot: snapshot, inTick: inTick},
				Traffic:    &traffic.Synthetic{Pattern: traffic.Uniform(64), Rate: 0.35},
				VCsPerVNet: 3,
				Seed:       23,
			})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	requireOrderInvariant(t, build(true), 1500)

	outs := runOrders(t, build(false), 1500)
	differs := false
	for _, got := range outs[1:] {
		differs = differs || !reflect.DeepEqual(got, outs[0])
	}
	if !differs {
		t.Fatal("an agent reading a neighbour's live VC.Len() in phase 2 went unnoticed under every permuted walk")
	}
}

// TestPhase2OrderOracleCatchesLiveRead plants the live read in switch
// allocation, where it can change which packets move.
func TestPhase2OrderOracleCatchesLiveRead(t *testing.T) { requireOracleCatches(t, false) }

// TestPhase2OrderOracleCatchesCrossStageRead plants it in Tick, a stage
// other than the switch allocation that changes what it reads: phase 2
// visits each router once, running all its stages, so a neighbour visited
// earlier has already allocated by the time the reader ticks.
func TestPhase2OrderOracleCatchesCrossStageRead(t *testing.T) { requireOracleCatches(t, true) }
