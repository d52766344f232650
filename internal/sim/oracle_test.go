package sim_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// squareRingNet builds the canonical 2x2 dependency cycle with no
// recovery scheme, for oracle unit tests.
func squareRingNet(t *testing.T) *sim.Network {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := []int{0, 1, 3, 2}
	ports := []int{
		topology.MeshPort(topology.East),
		topology.MeshPort(topology.North),
		topology.MeshPort(topology.West),
		topology.MeshPort(topology.South),
	}
	table := &routing.Table{}
	for i := range ring {
		dst := ring[(i+2)%len(ring)]
		table.Set(ring[i], dst, ports[i])
		table.Set(ring[(i+1)%len(ring)], dst, ports[(i+1)%len(ring)])
	}
	n, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: table, VCsPerVNet: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ring {
		n.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+2)%len(ring)], Length: 2})
	}
	return n
}

func TestOracleFindsExactCycle(t *testing.T) {
	n := squareRingNet(t)
	n.Run(30)
	dl := n.FindDeadlock()
	if len(dl) != 4 {
		t.Fatalf("oracle found %d deadlocked VCs, want the 4 ring VCs: %v", len(dl), dl)
	}
	routersSeen := map[int]bool{}
	for _, d := range dl {
		routersSeen[d.Router] = true
		if d.Port == 0 {
			t.Fatal("terminal-port VC reported as deadlocked ring member")
		}
	}
	if len(routersSeen) != 4 {
		t.Fatalf("cycle should span all 4 routers, got %v", routersSeen)
	}
}

func TestOracleCountsRhoVictims(t *testing.T) {
	n := squareRingNet(t)
	n.Run(10)
	// A victim: a packet from router 0 whose route enters the jammed ring
	// VC at router 1 (dst router 3 via E then N, same table entries as
	// the ring packet from 0).
	n.InjectPacket(0, sim.PacketSpec{Dst: 3, Length: 2})
	n.Run(30)
	dl := n.FindDeadlock()
	// The 4 ring VCs plus the victim starving at router 0's terminal VC:
	// a victim cannot be a cycle member, but it is permanently blocked on
	// the cycle and the oracle reports it.
	if len(dl) != 5 {
		t.Fatalf("oracle found %d deadlocked VCs, want 4 ring + 1 victim: %v", len(dl), dl)
	}
	victims := 0
	for _, d := range dl {
		if d.Port == 0 {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("want exactly one terminal-VC victim, got %d", victims)
	}
}

func TestOracleClearOnEmptyAndLightLoad(t *testing.T) {
	mesh, _ := topology.NewMesh(3, 3, 1)
	n, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: &routing.XY{Mesh: mesh}, VCsPerVNet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.Deadlocked() {
		t.Fatal("empty network reported deadlocked")
	}
	n.InjectPacket(0, sim.PacketSpec{Dst: 8, Length: 5})
	for i := 0; i < 40; i++ {
		n.Step()
		if n.Deadlocked() {
			t.Fatalf("single moving packet reported deadlocked at cycle %d", i)
		}
	}
}

func TestOracleBlockedButLiveChainIsNotDeadlock(t *testing.T) {
	// A convoy into one ejector: every packet is head-blocked at some
	// point but the chain drains — the oracle must never flag it.
	mesh, _ := topology.NewMesh(6, 1, 1)
	n, _ := sim.NewNetwork(sim.Config{Topology: mesh, Routing: &routing.XY{Mesh: mesh}, VCsPerVNet: 1})
	for i := 0; i < 5; i++ {
		n.InjectPacket(0, sim.PacketSpec{Dst: 5, Length: 5})
		n.InjectPacket(1, sim.PacketSpec{Dst: 5, Length: 5})
	}
	for i := 0; i < 300; i++ {
		n.Step()
		if n.Deadlocked() {
			t.Fatalf("draining convoy flagged as deadlock at cycle %d", i)
		}
	}
	if n.Stats().Ejected != 10 {
		t.Fatalf("convoy not delivered: %d/10", n.Stats().Ejected)
	}
}

func TestOraclePersistsWhileUnrecovered(t *testing.T) {
	n := squareRingNet(t)
	n.Run(30)
	if !n.Deadlocked() {
		t.Fatal("ring not deadlocked")
	}
	n.Run(2000)
	if !n.Deadlocked() {
		t.Fatal("true deadlock dissolved without a recovery scheme")
	}
	if n.Stats().Ejected != 0 {
		t.Fatal("deadlocked packets delivered?!")
	}
}

// TestOracleMatchesFixpoint: FindDeadlock, a liveness closure over the
// wait-for graph's strongly connected components, names the same VCs in
// the same order as the repeat-until-unchanged fixpoint it replaced
// (ReferenceDeadlock), and a sample allocates nothing once the oracle's
// scratch has grown to the graph. The scenarios are the fuzz corpus —
// generated seeds and FuzzScenario's committed seed inputs, sampled every
// 16 cycles like the checker's recovery bound — and SPIN's two collapse
// points on mesh:8x8, where most of the network is one deadlocked knot.
func TestOracleMatchesFixpoint(t *testing.T) {
	type point struct {
		sc    harness.Scenario
		every int64
		jam   int // deadlocked VCs some sample must reach
	}
	points := map[string]point{}
	for _, c := range collapsePoints() {
		points[c.name] = point{c.sc, 250, 100}
	}
	for seed := int64(1); seed <= 24; seed++ {
		points[fmt.Sprintf("generated/%d", seed)] = point{harness.Generate(rand.New(rand.NewSource(seed))), 16, 0}
	}
	files, err := filepath.Glob(filepath.Join("..", "harness", "testdata", "fuzz", "FuzzScenario", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzScenario seed corpus: %v", err)
	}
	for _, path := range files {
		v := fuzzValues(t, path)
		sc := harness.FromBits(uint8(v[0]), uint8(v[1]), uint8(v[2]), uint8(v[3]), uint8(v[4]), uint16(v[5]), v[6], uint16(v[7]))
		points["fuzz/"+filepath.Base(path)] = point{sc, 16, 0}
	}
	for name, p := range points {
		t.Run(name, func(t *testing.T) {
			s, err := p.sc.Sim()
			if err != nil {
				t.Fatal(err)
			}
			n := s.Network()
			var got []sim.DeadlockedVC
			most := 0
			for c := int64(0); c < p.sc.Cycles; c += p.every {
				n.Run(p.every)
				if allocs := testing.AllocsPerRun(1, func() { got = sim.AppendDeadlock(n, got[:0]) }); allocs != 0 {
					t.Errorf("cycle %d: a grown oracle allocates %.0f objects per sample", n.Now(), allocs)
				}
				if want := sim.ReferenceDeadlock(n); len(want) != len(got) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: FindDeadlock names %d VCs, the fixpoint %d:\n got %v\nwant %v", n.Now(), len(got), len(want), got, want)
				}
				most = max(most, len(got))
			}
			if most < p.jam {
				t.Errorf("at most %d VCs deadlocked at once, want a jam of >= %d", most, p.jam)
			}
			t.Logf("at most %d VCs deadlocked at once", most)
		})
	}
}

// collapsePoints are SPIN's two collapse points on mesh:8x8,
// min_adaptive, uniform random: 1 VC at 0.12 offered and 3 VCs at 0.30,
// where most of the network ends up in one deadlocked knot.
func collapsePoints() []collapsePoint {
	var points []collapsePoint
	for _, vcs := range []struct {
		n    int
		rate float64
	}{{1, 0.12}, {3, 0.30}} {
		points = append(points, collapsePoint{fmt.Sprintf("collapse/%dvc@%.2f", vcs.n, vcs.rate), harness.Scenario{
			Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random",
			Rate: vcs.rate, VCsPerVNet: vcs.n, Seed: 1, Cycles: 20000}})
	}
	return points
}

type collapsePoint struct {
	name string
	sc   harness.Scenario
}

// BenchmarkFindDeadlock times one oracle call on a frozen network: each
// collapse point is sampled every 250 cycles, as TestOracleMatchesFixpoint
// samples it, then rebuilt, run to the sample with the largest deadlocked
// knot and sampled there again and again without a step. The checker's
// sample every 16 cycles of a checked run pays this inside a collapse; a
// grown oracle allocates nothing.
func BenchmarkFindDeadlock(b *testing.B) {
	for _, c := range collapsePoints() {
		b.Run(c.name, func(b *testing.B) {
			network := func() *sim.Network {
				s, err := c.sc.Sim()
				if err != nil {
					b.Fatal(err)
				}
				return s.Network()
			}
			n := network()
			var got []sim.DeadlockedVC
			peak, at := 0, int64(0)
			for cyc := int64(250); cyc <= c.sc.Cycles; cyc += 250 {
				n.Run(250)
				if got = sim.AppendDeadlock(n, got[:0]); len(got) > peak {
					peak, at = len(got), cyc
				}
			}
			n = network()
			n.Run(at)
			if got = sim.AppendDeadlock(n, got[:0]); len(got) != peak || peak < 100 {
				b.Fatalf("%d VCs deadlocked at cycle %d, want the first pass's %d (>= 100)", len(got), at, peak)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got = sim.AppendDeadlock(n, got[:0])
			}
			b.ReportMetric(float64(len(got)), "deadlocked_vcs")
		})
	}
}

// fuzzValues reads the integer arguments of one "go test fuzz v1" file.
func fuzzValues(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		open, end := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
		if open < 0 || end < open {
			continue // the version header
		}
		v, err := strconv.ParseInt(line[open+1:end], 10, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out = append(out, v)
	}
	if len(out) != 8 {
		t.Fatalf("%s: %d values, want FromBits' 8", path, len(out))
	}
	return out
}
