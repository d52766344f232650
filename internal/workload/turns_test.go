package workload

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The traffic sources as they stood when the engine called every terminal
// on every cycle, verbatim but for their type names: each drew its
// Bernoulli trial with rng.Float64 and named no next turn. They are the
// reference TestTrafficTurnsMatchEveryCycle and FuzzTrafficTurns hold the
// turn-taking sources to.

type everyCycleGen interface {
	Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec))
}

const dataLen = 5

type parentSynthetic struct {
	Pattern  traffic.Pattern
	Rate     float64
	DataFrac float64
	VNets    int

	next []int32

	frac, pInject float64
}

func (s *parentSynthetic) Generate(_ int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	if s.frac == 0 {
		s.frac = cmp.Or(s.DataFrac, 0.5)
		meanLen := s.frac*dataLen + (1 - s.frac)
		s.pInject = s.Rate / meanLen
	}
	if rng.Float64() >= s.pInject {
		return
	}
	length := 1
	if rng.Float64() < s.frac {
		length = dataLen
	}
	vnet := 0
	if s.VNets > 1 {
		for len(s.next) <= src {
			s.next = append(s.next, make([]int32, max(len(s.next), 64))...) // doubling, never per terminal
		}
		vnet = int(s.next[src]) % s.VNets
		s.next[src]++
	}
	dst := s.Pattern.Dest(src, rng)
	if dst == src {
		return
	}
	emit(sim.PacketSpec{Dst: dst, Length: length, VNet: vnet})
}

type parentAppTraffic struct {
	Profile traffic.AppProfile
	Topo    topology.Topology

	near [][]int
}

func (a *parentAppTraffic) Generate(_ int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	p := a.Profile
	meanLen := p.DataRatio*5 + (1 - p.DataRatio)
	if rng.Float64() >= p.Rate/meanLen {
		return
	}
	dst := a.pickDst(src, rng)
	if dst == src {
		return
	}
	if rng.Float64() < p.DataRatio {
		emit(sim.PacketSpec{Dst: dst, Length: 5, VNet: 2})
		return
	}
	vnet := 0
	if rng.Float64() < 0.4 {
		vnet = 1
	}
	emit(sim.PacketSpec{Dst: dst, Length: 1, VNet: vnet})
}

func (a *parentAppTraffic) pickDst(src int, rng *rand.Rand) int {
	n := a.Topo.NumTerminals()
	if rng.Float64() >= a.Profile.Locality {
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	}
	if a.near == nil {
		a.near = make([][]int, n)
	}
	if a.near[src] == nil {
		srcR := a.Topo.TerminalRouter(src)
		for t := 0; t < n; t++ {
			if t != src && a.Topo.Distance(srcR, a.Topo.TerminalRouter(t)) <= 2 {
				a.near[src] = append(a.near[src], t)
			}
		}
	}
	if len(a.near[src]) == 0 {
		return src
	}
	return a.near[src][rng.Intn(len(a.near[src]))]
}

// parentStreamReplay keeps the pump and the per-terminal drain; the bounds
// check, which no reference entry fails, is left out.
type parentStreamReplay struct {
	src       traffic.EntrySource
	queues    [][]traffic.TraceEntry
	next      traffic.TraceEntry
	nextValid bool
	eof       bool
	err       error
	pumped    int64
}

func (s *parentStreamReplay) StepTraffic(now int64) {
	if s.err != nil {
		return
	}
	for {
		if !s.nextValid {
			if s.eof {
				return
			}
			e, err := s.src.Next()
			if err != nil {
				if err != io.EOF {
					s.err = err
				}
				s.eof = true
				return
			}
			s.next = e
			s.nextValid = true
		}
		if s.next.Cycle > now {
			return
		}
		s.queues[s.next.Src] = append(s.queues[s.next.Src], s.next)
		s.nextValid = false
		s.pumped++
	}
}

func (s *parentStreamReplay) Generate(_ int64, src int, _ *rand.Rand, emit func(sim.PacketSpec)) {
	q := s.queues[src]
	if len(q) == 0 {
		return
	}
	for _, e := range q {
		emit(sim.PacketSpec{Dst: e.Dst, Length: e.Length, VNet: e.VNet})
	}
	s.queues[src] = q[:0]
}

type parentBurst struct {
	Inner   everyCycleGen
	OnMean  int64
	OffMean int64

	terms []burstState
}

func parentDraw(rng *rand.Rand, mean int64) int64 {
	if mean <= 1 {
		return 1
	}
	return 1 + int64(rng.ExpFloat64()*float64(mean-1))
}

func (b *parentBurst) Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	for len(b.terms) <= src {
		b.terms = append(b.terms, make([]burstState, max(len(b.terms), 64))...) // doubling, never per terminal
	}
	t := &b.terms[src]
	if t.until == 0 {
		// Every terminal starts mid-burst; the first draw desynchronises
		// the terminals since each uses its own stream.
		t.on = true
		t.until = cycle + parentDraw(rng, b.OnMean)
	}
	for cycle >= t.until {
		t.on = !t.on
		mean := b.OnMean
		if !t.on {
			mean = b.OffMean
		}
		t.until += parentDraw(rng, mean)
	}
	if !t.on {
		return
	}
	b.Inner.Generate(cycle, src, rng, emit)
}

// parentClosedLoop is a ClosedLoop with the old Generate: the ejects, the
// windows and the think streams are the client's own.
type parentClosedLoop struct {
	*ClosedLoop
	pIssue float64
}

func (cl parentClosedLoop) Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	if q := cl.pend[src]; len(q) > 0 {
		for _, r := range q {
			emit(sim.PacketSpec{Dst: int(r.dst), Length: int(r.length), VNet: cl.vnets - 1})
		}
		cl.pend[src] = q[:0]
	}
	if cl.quiesced || cl.outstanding[src] >= cl.window || cycle < cl.thinkUntil[src] {
		return
	}
	if rng.Float64() >= cl.pIssue {
		return
	}
	dst := cl.pat.Dest(src, rng)
	if dst == src {
		return
	}
	emit(sim.PacketSpec{Dst: dst, Length: cl.reqLen, VNet: 0})
	cl.outstanding[src]++
	cl.issued[src]++
}

// everyCycle runs an old source under the turn-taking engine by naming the
// next cycle at every turn: every terminal takes a turn on every cycle, as
// the old engine gave it.
type everyCycle struct{ old everyCycleGen }

func (e everyCycle) Generate(now, _ int64, src int, rng *sim.Stream, emit func(sim.PacketSpec)) int64 {
	e.old.Generate(now, src, &rng.Rand, emit)
	return now + 1
}

// everyCycleReplay pumps the old replay's trace where the old Step did, at
// the top of every cycle: before terminal 0's call, the first of each cycle
// on which every terminal takes a turn.
type everyCycleReplay struct {
	everyCycle
	old *parentStreamReplay
}

func (e everyCycleReplay) Generate(now, limit int64, src int, rng *sim.Stream, emit func(sim.PacketSpec)) int64 {
	if src == 0 {
		e.old.StepTraffic(now)
	}
	return e.everyCycle.Generate(now, limit, src, rng, emit)
}

// The old closed-loop source's other role, passed through.
type everyCycleClosed struct {
	everyCycle
	sim.ClosedLoopTraffic
}

// turnScenario is one source description, built twice per seed: as the
// source under test and as its old every-cycle self.
type turnScenario struct {
	name  string
	build func(seed int64) (turns, ref sim.TrafficGen)
}

// turnScenarios covers every source: Bernoulli rates from never to every
// cycle, vnet rotation and hotspot draws, the PARSEC mix, bursts whose
// transitions fall inside a settled look-ahead, closed-loop clients woken
// by their ejects with and without think times, and a gapped trace.
func turnScenarios(m *topology.Mesh, bursts [2]int64, window int, think int64) []turnScenario {
	n := m.NumTerminals()
	uniform := traffic.Uniform(n)
	hot := &Hotspot{Inner: uniform, Frac: 0.3, Hot: []int{0, n / 2}}
	synthetic := func(name string, pat traffic.Pattern, rate, frac float64, vnets int) turnScenario {
		return turnScenario{name, func(int64) (sim.TrafficGen, sim.TrafficGen) {
			return &traffic.Synthetic{Pattern: pat, Rate: rate, DataFrac: frac, VNets: vnets},
				everyCycle{&parentSynthetic{Pattern: pat, Rate: rate, DataFrac: frac, VNets: vnets}}
		}}
	}
	closed := func(name string, spec Spec, rate float64) turnScenario {
		return turnScenario{name, func(seed int64) (sim.TrafficGen, sim.TrafficGen) {
			spec.Mode = "closed"
			spec.Normalize()
			a, errA := newClosedLoop(spec, hot, rate, 3, n, seed)
			b, errB := newClosedLoop(spec, hot, rate, 3, n, seed)
			if errA != nil || errB != nil {
				panic(fmt.Sprint(errA, errB))
			}
			return a, everyCycleClosed{everyCycle{parentClosedLoop{b, min(rate/float64(spec.ReqLen), 1)}}, b}
		}}
	}
	var entries []traffic.TraceEntry
	for i := 0; i < 600; i++ {
		// Bursts of 8 entries a cycle for 10 cycles, 200-cycle gaps.
		c := int64(i/80*200 + i%80/8)
		if src, dst := i*7%n, (i*11+3)%n; src != dst {
			entries = append(entries, traffic.TraceEntry{Cycle: c, Src: src, Dst: dst, Length: 1 + 4*(i%2), VNet: i % 3})
		}
	}
	app := traffic.PARSEC()[2] // canneal: the heaviest profile
	return []turnScenario{
		synthetic("synthetic", uniform, 0.2, 0, 3),
		synthetic("synthetic/rate0", uniform, 0, 0, 1),
		synthetic("synthetic/tiny", uniform, 1e-3, 0.3, 1),
		synthetic("synthetic/unit", uniform, 3, 0.5, 2), // Rate/E[len] = 1: every trial hits
		synthetic("synthetic/hotspot", hot, 0.15, 0.5, 3),
		{"parsec", func(int64) (sim.TrafficGen, sim.TrafficGen) {
			return &traffic.AppTraffic{Profile: app, Topo: m}, everyCycle{&parentAppTraffic{Profile: app, Topo: m}}
		}},
		{"burst", func(int64) (sim.TrafficGen, sim.TrafficGen) {
			on, off := bursts[0], bursts[1]
			return &Burst{Inner: &traffic.Synthetic{Pattern: hot, Rate: 0.4, VNets: 3}, OnMean: on, OffMean: off},
				everyCycle{&parentBurst{Inner: &parentSynthetic{Pattern: hot, Rate: 0.4, VNets: 3}, OnMean: on, OffMean: off}}
		}},
		closed("closed_loop/think", Spec{Window: window, Think: think}, 0.3),
		closed("closed_loop", Spec{Window: window}, 0.2),
		{"trace", func(int64) (sim.TrafficGen, sim.TrafficGen) {
			cfg := sim.Config{Topology: m, VNets: 3}
			s, err := traffic.NewStreamReplay(traffic.SliceSource(entries), cfg)
			if err != nil {
				panic(err)
			}
			old := &parentStreamReplay{src: traffic.SliceSource(entries), queues: make([][]traffic.TraceEntry, n)}
			return s, everyCycleReplay{everyCycle{old}, old}
		}},
	}
}

// turnRun is what one run shows: every packet queued and ejected, in
// order, and the run's statistics.
type turnRun struct {
	events []sim.Event
	stats  sim.Stats
}

// runTurns runs gen on a 4x4 mesh for cycles, drains it, and runs it
// resumed for as many cycles again. With rewound, the network first runs
// another source under another seed, stopped mid-way with turns settled
// ahead, and is Reset to gen's run: what it shows must not depend on that.
func runTurns(t testing.TB, m *topology.Mesh, gen sim.TrafficGen, seed, cycles int64, rewound bool) turnRun {
	t.Helper()
	cfg := sim.Config{Topology: m, Routing: &routing.XY{Mesh: m}, Traffic: gen,
		VNets: 3, VCsPerVNet: 2, Seed: seed, StatsStart: cycles / 4}
	dirty := cfg
	if rewound {
		dirty.Seed, dirty.Traffic = seed+1, &Burst{Inner: &traffic.Synthetic{Pattern: traffic.Uniform(m.NumTerminals()), Rate: 0.5}, OnMean: 9, OffMean: 5}
	}
	n, err := sim.NewNetwork(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if rewound {
		n.Run(333)
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var run turnRun
	n.AddObserver(sim.MaskOf(sim.EvPacketQueued, sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
		run.events = append(run.events, e)
	}))
	n.Run(cycles)
	if !n.Drain(200 * cycles) {
		t.Fatalf("seed %d: the network did not drain", seed)
	}
	n.Run(cycles)
	run.stats = *n.Stats()
	return run
}

// TestTrafficTurnsMatchEveryCycle: a source that names its next turn, and
// settles the turns it skips, emits exactly what its old self did when
// called at every terminal on every cycle — the same (cycle, src, spec),
// the same packet IDs, the same ejects and statistics — across random
// seeds, a drain, a resumption, and on a network rewound from another run.
func TestTrafficTurnsMatchEveryCycle(t *testing.T) {
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1}
	for r := rand.New(rand.NewSource(41)); len(seeds) < 4; {
		seeds = append(seeds, r.Int63())
	}
	for _, sc := range turnScenarios(m, [2]int64{20, 60}, 2, 30) {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range seeds {
				_, ref := sc.build(seed)
				want := runTurns(t, m, ref, seed, 1500, false)
				if len(want.events) == 0 && sc.name != "synthetic/rate0" {
					t.Fatalf("seed %d: the scenario generated nothing", seed)
				}
				for _, rewound := range []bool{false, true} {
					turns, _ := sc.build(seed)
					got := runTurns(t, m, turns, seed, 1500, rewound)
					if i := firstDiff(got.events, want.events); i >= 0 {
						t.Fatalf("seed %d, rewound %v: event %d of %d/%d differs:\n turns:       %+v\n every cycle: %+v",
							seed, rewound, i, len(got.events), len(want.events), at(got.events, i), at(want.events, i))
					}
					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Fatalf("seed %d, rewound %v: stats differ:\n turns:       %+v\n every cycle: %+v", seed, rewound, got.stats, want.stats)
					}
				}
			}
		})
	}
}

func firstDiff(a, b []sim.Event) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(es []sim.Event, i int) any {
	if i < len(es) {
		return es[i]
	}
	return "(none)"
}

// FuzzTrafficTurns searches the scenario space the test samples: any seed,
// burst shape, window, think time and run length, on any one source (the
// fuzzed index, modulo the scenario count), on a fresh network or (even
// on) a rewound one. The seed corpus holds one input per source.
//
// Run it with: go test -fuzz FuzzTrafficTurns -fuzztime 60s ./internal/workload
func FuzzTrafficTurns(f *testing.F) {
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	shapes := []struct {
		seed                   int64
		on, off, window, think uint8
		cycles                 uint16
	}{
		{1, 20, 60, 2, 30, 400},
		{7, 1, 1, 1, 0, 64},
		{-3, 200, 3, 8, 255, 1000},
		{1 << 40, 63, 64, 4, 1, 127},
	}
	for i := range turnScenarios(m, [2]int64{1, 1}, 1, 0) {
		s := shapes[i%len(shapes)]
		f.Add(uint8(i), s.seed, s.on, s.off, s.window, s.think, s.cycles)
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64, on, off, window, think uint8, cycles uint16) {
		bursts := [2]int64{int64(on) + 1, int64(off) + 1}
		c := int64(cycles%1500) + 1
		scenarios := turnScenarios(m, bursts, int(window%8)+1, int64(think))
		sc := scenarios[int(which)%len(scenarios)]
		turns, ref := sc.build(seed)
		got, want := runTurns(t, m, turns, seed, c, on%2 == 0), runTurns(t, m, ref, seed, c, false)
		if i := firstDiff(got.events, want.events); i >= 0 {
			t.Fatalf("%s: event %d differs: turns %+v, every cycle %+v", sc.name, i, at(got.events, i), at(want.events, i))
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("%s: stats differ:\n turns:       %+v\n every cycle: %+v", sc.name, got.stats, want.stats)
		}
	})
}
