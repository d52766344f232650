package harness

import (
	"math/rand"

	spin "repro"
	"repro/internal/workload"
)

// The generator's job is to emit only *valid* scenarios — combinations
// the simulator accepts and that are deadlock-free by construction
// (acyclic routing) or by recovery (cyclic routing under SPIN) — so that
// every invariant violation a run produces is a real bug, not a
// misconfigured experiment. Which is which, and how many VCs a routing
// needs, is the root package's routing table (spin.Routings): a routing
// that may run without a scheme runs without one, any other under SPIN,
// and every one at no fewer VCs than its floor. What is legal here is the
// topology's routing list; the bit permutation patterns need power-of-two
// terminal counts, transpose a square mesh or power-of-two terminals.

// topoChoice describes one generatable topology and what is legal on it.
type topoChoice struct {
	spec      string
	terminals int
	square    bool // square mesh (transpose legal regardless of pow2)
	dragonfly bool
	// routings legal on this topology. The order is part of the corpus: a
	// draw picks an index.
	routings []string
}

var topoChoices = []topoChoice{
	{spec: "mesh:3x3", terminals: 9, square: true,
		routings: []string{"xy", "westfirst", "escape_vc", "min_adaptive", "favors_min", "favors_nmin"}},
	{spec: "mesh:4x4", terminals: 16, square: true,
		routings: []string{"xy", "westfirst", "escape_vc", "min_adaptive", "favors_min", "favors_nmin"}},
	{spec: "mesh:4x2", terminals: 8,
		routings: []string{"xy", "westfirst", "escape_vc", "min_adaptive", "favors_min"}},
	{spec: "mesh:5x5", terminals: 25, square: true,
		routings: []string{"xy", "westfirst", "escape_vc", "min_adaptive", "favors_min"}},
	// XY on a torus never takes wrap links (mesh-coordinate turns only),
	// so it stays acyclic; escape_vc's escape ring is likewise non-wrap.
	{spec: "torus:4x4", terminals: 16, square: true,
		routings: []string{"xy", "escape_vc", "min_adaptive", "favors_min"}},
	{spec: "dragonfly:2,4,2,9", terminals: 72, dragonfly: true,
		routings: []string{"dfly_min_ladder", "dfly_min", "ugal_spin"}},
	{spec: "jellyfish:10,1,3", terminals: 10,
		routings: []string{"min_adaptive", "favors_min"}},
	{spec: "irregular:4x4:3", terminals: 16,
		routings: []string{"min_adaptive", "favors_min"}},
}

// patterns legal for a topology: the bit permutations need power-of-two
// terminal counts; transpose additionally accepts square meshes.
func (tc topoChoice) patterns() []string {
	ps := []string{"uniform_random", "tornado", "neighbor"}
	if tc.terminals&(tc.terminals-1) == 0 {
		ps = append(ps, "bit_complement", "bit_reverse", "bit_rotation", "shuffle", "transpose")
	} else if tc.square {
		ps = append(ps, "transpose")
	}
	return ps
}

func pick(rng *rand.Rand, opts []string) string { return opts[rng.Intn(len(opts))] }

// route sets the scenario's routing as the routing table says it may run:
// without a scheme if it is deadlock-free alone, else under SPIN, and at
// no fewer VCs than its floor.
func route(sc *Scenario, name string) {
	e := spin.LookupRouting(name)
	sc.Routing, sc.Scheme = name, "spin"
	if e.Schemeless {
		sc.Scheme = ""
	}
	sc.VCsPerVNet = max(sc.VCsPerVNet, e.MinVCs)
}

// Generate draws one random valid scenario. The same rng state always
// yields the same scenario, so a harness run over seeds 1..N is a fixed,
// reproducible corpus.
func Generate(rng *rand.Rand) Scenario {
	tc := topoChoices[rng.Intn(len(topoChoices))]

	sc := Scenario{
		Topology: tc.spec,
		Traffic:  pick(rng, tc.patterns()),
		// Saturating loads are where deadlock and recovery live; keep
		// the mass of the distribution there but visit low load too.
		Rate:       0.08 + 0.5*rng.Float64(),
		DataFrac:   0.5,
		VNets:      1 + rng.Intn(2),
		VCsPerVNet: 1 + rng.Intn(3),
		VCDepth:    5,
		Seed:       1 + rng.Int63n(1<<30),
		TDD:        []int64{16, 24, 32}[rng.Intn(3)],
		Cycles:     600 + rng.Int63n(600),
	}

	route(&sc, pick(rng, tc.routings))
	// The big dragonfly is the slowest topology; cap its runtime share.
	if tc.dragonfly {
		sc.Cycles = 400
		sc.VNets = 1
	}
	return sc
}

// FromBits decodes raw fuzzer-chosen values into a valid scenario by
// clamping every field into its legal range — the bridge between go
// test -fuzz's primitive corpus entries and the scenario space. The
// mapping is total: every input decodes to a runnable scenario, so the
// fuzzer spends its budget exploring behaviour, not fighting validation.
func FromBits(topoSel, routeSel, patSel, vcs, vnets uint8, ratePct uint16, seed int64, cycles uint16) Scenario {
	tc := topoChoices[int(topoSel)%len(topoChoices)]
	pats := tc.patterns()
	sc := Scenario{
		Topology:   tc.spec,
		Traffic:    pats[int(patSel)%len(pats)],
		Rate:       0.05 + float64(ratePct%55)/100, // 0.05..0.59
		DataFrac:   0.5,
		VNets:      1 + int(vnets)%2,
		VCsPerVNet: 1 + int(vcs)%3,
		VCDepth:    5,
		Seed:       seed&0x7fffffff + 1,
		TDD:        16,
		Cycles:     100 + int64(cycles)%400,
	}
	route(&sc, tc.routings[int(routeSel)%len(tc.routings)])
	if tc.dragonfly {
		sc.Cycles = 200
		sc.VNets = 1
	}
	return sc
}

// GenerateWorkload draws a random valid scenario carrying a shaped
// workload block — closed-loop finite-window clients, bursty on/off
// sources, or hotspot skew — on top of Generate's topology/routing
// space. Like Generate, the same rng state always yields the same
// scenario, so a seed range is a fixed corpus.
func GenerateWorkload(rng *rand.Rand) Scenario {
	sc := Generate(rng)
	w := &workload.Spec{}
	switch rng.Intn(3) {
	case 0: // closed-loop request/response clients
		w.Mode = "closed"
		w.Window = 1 + rng.Intn(8)
		w.ReqLen = 1
		w.RespLen = 1 + rng.Intn(5)
		if rng.Intn(2) == 0 {
			w.Think = int64(1 + rng.Intn(16))
		}
		if sc.VNets < 2 {
			sc.VNets = 2 // reply class
		}
	case 1: // bursty open-loop
		w.BurstOn = int64(4 + rng.Intn(28))
		w.BurstOff = int64(4 + rng.Intn(60))
		// Build compensates the rate by the duty cycle, so trim the base
		// rate to keep in-burst injection below the hard clamp.
		sc.Rate = 0.05 + 0.15*rng.Float64()
	case 2: // hotspot skew
		w.HotFrac = 0.05 + 0.3*rng.Float64()
		w.Hotspots = 1 + rng.Intn(2)
	}
	sc.Workload = w
	return sc
}

// WorkloadFromBits layers a fuzzer-chosen workload block onto a base
// scenario, clamping every knob into its legal range the same way
// FromBits does. The mapping is total: every input yields a runnable
// scenario.
func WorkloadFromBits(sc Scenario, mode, wa, wb, wc uint8) Scenario {
	w := &workload.Spec{}
	switch mode % 3 {
	case 0:
		w.Mode = "closed"
		w.Window = 1 + int(wa)%8
		w.ReqLen = 1
		w.RespLen = 1 + int(wb)%5
		w.Think = int64(wc) % 17
		if sc.VNets < 2 {
			sc.VNets = 2
		}
	case 1:
		w.BurstOn = 2 + int64(wa)%30
		w.BurstOff = 2 + int64(wb)%62
		if sc.Rate > 0.25 {
			sc.Rate = 0.25
		}
	case 2:
		w.HotFrac = float64(1+int(wa)%40) / 100
		w.Hotspots = 1 + int(wb)%2
	}
	sc.Workload = w
	return sc
}

// DifferentialEligible reports whether sc has an escape-VC baseline to
// compare against: whether Baseline's routing builds on its topology.
func DifferentialEligible(sc Scenario) bool {
	b := Baseline(sc)
	topo, err := spin.BuildTopology(b.Topology, b.Seed)
	if err == nil {
		_, err = spin.BuildRouting(b.Routing, topo, b.VCsPerVNet)
	}
	return err == nil
}

// Baseline derives the escape-VC reference configuration of sc used by the
// differential oracle: same topology, workload and seed, but Duato
// escape-VC routing with no recovery scheme — deadlock-free by
// construction, so its delivered packet set is ground truth.
func Baseline(sc Scenario) Scenario {
	sc.TDD = 0
	route(&sc, "escape_vc")
	return sc
}
