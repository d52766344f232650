package sim_test

import (
	"reflect"
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// eventLog is a Probe that keeps everything it hears.
type eventLog []sim.Event

func (l *eventLog) Event(e sim.Event) { *l = append(*l, e) }

// TestStallIndexParity steps each scenario twice in lock-step: the product
// network, whose stall index (blocked heads, route requests, free-VC words,
// backlogged NICs) decides what a Step visits, and a twin whose index is
// rebuilt by full scan before every Step, i.e. the engine that re-scans
// everything every cycle. Both must emit the same events in the same order
// and end with the same Stats: one missed wake, or one
// VC put to sleep that a scan would have served, and they part ways.
//
// The scenarios pair every scheme with the topologies it runs on (static
// bubble needs a mesh, ring bubble a torus, escape_vc routing a mesh), and
// between them cover stalls of every kind: credit-blocked heads at
// saturation, the 1-VC SPIN regime with freezes and spins, agent vetoes on
// send and on injection, and NIC backlogs.
func TestStallIndexParity(t *testing.T) {
	for _, sc := range stallScenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.Seed = 29
			product, twin := lockstep(t, cfg, sc.cycles)
			st := product.Stats()
			if st.Ejected == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if sc.cfg.VCsPerVNet == 1 && sc.cfg.Scheme == "spin" && st.Spins == 0 {
				t.Fatal("1-VC SPIN scenario never spun")
			}
			t.Logf("%d packets, %d spins, switch-allocation turns %d (full scan: %d)", st.Ejected, st.Spins, sim.SAVisits(product), sim.SAVisits(twin))
		})
	}
}

// stallScenarios are TestStallIndexParity's (and TestIncrementalCheckerParity's).
var stallScenarios = []struct {
	name   string
	cfg    spin.Config
	cycles int
}{
	{"spin/mesh_3vc_sat", spin.Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 3, Traffic: "uniform_random", Rate: 0.28}, 1500},
	{"spin/torus_1vc", spinTorus1VC, 4000},
	{"spin/dragonfly_ugal", spin.Config{Topology: "dragonfly:4,4,4,16", Routing: "ugal_spin", Scheme: "spin", VCsPerVNet: 3, Traffic: "uniform_random", Rate: 0.20}, 1200},
	{"spin/irregular_mesh", spin.Config{Topology: "irregular:6x6:8", Routing: "min_adaptive", Scheme: "spin", VNets: 3, VCsPerVNet: 1, Traffic: "uniform_random", Rate: 0.30}, 2000},
	{"static_bubble/mesh", spin.Config{Topology: "mesh:8x8", Scheme: "static_bubble", VNets: 3, VCsPerVNet: 2, Traffic: "transpose", Rate: 0.40, TDD: 32}, 2000},
	{"ring_bubble/torus", spin.Config{Topology: "torus:4x4", Routing: "xy", Scheme: "ring_bubble", VCsPerVNet: 1, Traffic: "tornado", Rate: 0.50}, 2000},
	// 72 VCs a port: every per-port index spans two words.
	{"spin/mesh_wide_ports", spin.Config{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", VNets: 3, VCsPerVNet: 24, Traffic: "uniform_random", Rate: 0.60}, 600},
	{"none/mesh_escape_vc", spin.Config{Topology: "mesh:8x8", Routing: "escape_vc", VNets: 3, VCsPerVNet: 2, Traffic: "bit_complement", Rate: 0.40}, 1500},
}

// spinTorus1VC is the paper's own regime — one VC, fully adaptive routing,
// deadlocks broken by spins — where nearly every buffered packet is a
// blocked head.
var spinTorus1VC = spin.Config{Topology: "torus:8x8", Routing: "favors_min", Scheme: "spin", VCsPerVNet: 1, Traffic: "bit_complement", Rate: 0.10}

// lockstep builds cfg twice and steps the pair for cycles, the twin with its
// stall index rebuilt by full scan before each Step, failing at the first
// cycle their event streams differ and at the end if their Stats do.
func lockstep(t *testing.T, cfg spin.Config, cycles int) (product, twin *sim.Network) {
	t.Helper()
	var nets [2]*sim.Network
	var logs [2]eventLog
	for i := range nets {
		s, err := spin.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = s.Network()
		nets[i].AddObserver(sim.AllEvents, &logs[i])
	}
	product, twin = nets[0], nets[1]
	for c := 0; c < cycles; c++ {
		logs[0], logs[1] = logs[0][:0], logs[1][:0]
		product.Step()
		sim.ResetStallIndex(twin)
		twin.Step()
		if !reflect.DeepEqual(logs[0], logs[1]) {
			for i := 0; i < len(logs[0]) || i < len(logs[1]); i++ {
				if i >= len(logs[0]) || i >= len(logs[1]) || logs[0][i] != logs[1][i] {
					t.Fatalf("cycle %d, event %d: indexed %v, full scan %v", c, i, logs[0][i:min(i+1, len(logs[0]))], logs[1][i:min(i+1, len(logs[1]))])
				}
			}
		}
	}
	if !reflect.DeepEqual(product.Stats(), twin.Stats()) {
		t.Fatalf("stats differ after %d cycles:\nindexed   %+v\nfull scan %+v", cycles, *product.Stats(), *twin.Stats())
	}
	return product, twin
}

// TestStallIndexCutsVisits is the count guard: in the 1-VC regime, once the
// network has filled, the index must hand out at least 5x fewer
// switch-allocation turns than the full scan. The counts are deterministic.
func TestStallIndexCutsVisits(t *testing.T) {
	cfg := spinTorus1VC
	cfg.Seed = 17
	product, twin := lockstep(t, cfg, 30000)
	indexed, full := sim.SAVisits(product), sim.SAVisits(twin)
	t.Logf("switch-allocation turns: indexed %d, full scan %d (%.1fx), %d spins", indexed, full, float64(full)/float64(indexed), product.Stats().Spins)
	if indexed*5 > full {
		t.Fatalf("indexed engine took %d switch-allocation turns, full scan %d: less than 5x apart", indexed, full)
	}
}
