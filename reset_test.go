package spin_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	spin "repro"
	"repro/internal/sim"
	spinscheme "repro/internal/spin"
	"repro/internal/topology"
)

// TestResetEqualsNew walks one Simulation through a ladder of configs that
// between them change every input Reset keys its reuse on — seed and rate
// alone (the sweep's case: rewind), routing name, scheme (a spin agent on
// every router, then none), a scheme that forces its own routing followed by
// a named one, VC count, topology — and requires each stop to run exactly as
// a fresh New of the same config does, and the network to be the same object
// exactly when the shape is. internal/sim's test of the same name covers the
// run state; this one covers what the facade decides to keep.
func TestResetEqualsNew(t *testing.T) {
	base := spin.Config{Topology: "mesh:4x4", Routing: "xy", VNets: 2, VCsPerVNet: 2, Traffic: "uniform_random", Rate: 0.25, Seed: 11, Warmup: 100}
	with := func(f func(*spin.Config)) spin.Config {
		c := base
		f(&c)
		return c
	}
	ladder := []struct {
		name   string
		cfg    spin.Config
		rewind bool // the previous stop's network is kept
	}{
		{"first", base, false},
		{"seed and rate", with(func(c *spin.Config) { c.Seed, c.Rate = 12, 0.6 }), true},
		{"routing", with(func(c *spin.Config) { c.Routing = "westfirst" }), true},
		{"scheme on", with(func(c *spin.Config) { c.Routing, c.Scheme, c.TDD = "min_adaptive", "spin", 16 }), true},
		{"scheme off", with(func(c *spin.Config) { c.Routing = "westfirst" }), true},
		{"forced routing", with(func(c *spin.Config) { c.Scheme = "static_bubble" }), true},
		{"named routing again", base, true},
		{"escape vc", with(func(c *spin.Config) { c.Routing = "escape_vc" }), true},
		{"one more VC", with(func(c *spin.Config) { c.Routing, c.VCsPerVNet = "escape_vc", 3 }), false},
		{"deeper VCs", with(func(c *spin.Config) { c.VCsPerVNet, c.VCDepth = 3, 8 }), false},
		{"torus", with(func(c *spin.Config) { c.Topology, c.Routing, c.Scheme = "torus:4x4", "favors_min", "spin" }), false},
		{"first again", base, false},
	}
	run := func(s *spin.Simulation) (sim.Stats, sim.LinkUtilisation, bool) {
		s.Run(1500)
		return *s.Stats(), s.Network().LinkUtilisation(), s.Drain(100000)
	}
	s := new(spin.Simulation)
	for _, stop := range ladder {
		prev := s.Network()
		if err := s.Reset(stop.cfg); err != nil {
			t.Fatalf("%s: %v", stop.name, err)
		}
		if kept := s.Network() == prev; kept != stop.rewind {
			t.Fatalf("%s: network kept = %v, want %v", stop.name, kept, stop.rewind)
		}
		fresh, err := spin.New(stop.cfg)
		if err != nil {
			t.Fatalf("%s: %v", stop.name, err)
		}
		if s.Network().Config().Routing.Name() != fresh.Network().Config().Routing.Name() {
			t.Fatalf("%s: routes with %s, a fresh build with %s", stop.name, s.Network().Config().Routing.Name(), fresh.Network().Config().Routing.Name())
		}
		gotStats, gotLinks, gotDrained := run(s)
		wantStats, wantLinks, wantDrained := run(fresh)
		if gotStats.Ejected == 0 || !reflect.DeepEqual(gotStats, wantStats) || gotLinks != wantLinks || gotDrained != wantDrained {
			t.Fatalf("%s: reset run differs from a fresh build's:\nreset %+v %+v drained=%v\nfresh %+v %+v drained=%v",
				stop.name, gotStats, gotLinks, gotDrained, wantStats, wantLinks, wantDrained)
		}
	}
}

// TestRewindAcrossSchemes walks one Simulation through schemes on one shape,
// so that each rewind finds the agents of another scheme, of none, or of its
// own (which it recycles) on the routers, and requires every run to read,
// counters and events, exactly as a fresh build of its config does. The runs
// are loaded enough to leave agents mid-recovery with their detection backed
// off, which a recycled agent must forget.
func TestRewindAcrossSchemes(t *testing.T) {
	base := spin.Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 1, VCsPerVNet: 3, Traffic: "uniform_random", Rate: 0.6, Seed: 3, Warmup: 200}
	with := func(f func(*spin.Config)) spin.Config {
		c := base
		f(&c)
		return c
	}
	ladder := []struct {
		name     string
		cfg      spin.Config
		recycles bool // the last stop ran SPIN too, so its agents are kept
	}{
		{"spin", base, false},
		{"static_bubble", with(func(c *spin.Config) { c.Routing, c.Scheme = "", "static_bubble" }), false},
		{"no scheme", with(func(c *spin.Config) { c.Routing, c.Scheme = "westfirst", "" }), false},
		{"spin again", with(func(c *spin.Config) { c.Seed = 4 }), false},
		{"spin at tDD 64", with(func(c *spin.Config) { c.Seed, c.TDD = 5, 64 }), true},
	}
	type record struct {
		Stats  sim.Stats
		Digest uint64
		Events int
	}
	run := func(s *spin.Simulation) record {
		var rec record
		s.Network().AddObserver(sim.AllEvents, sim.ProbeFunc(func(e sim.Event) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%v", rec.Digest, e)
			rec.Digest = h.Sum64()
			rec.Events++
		}))
		s.Run(2000)
		rec.Stats = *s.Stats()
		return rec
	}
	s := new(spin.Simulation)
	var last []sim.Agent // the routers' agents as the previous stop left them
	for i, stop := range ladder {
		if err := s.Reset(stop.cfg); err != nil {
			t.Fatalf("%s: %v", stop.name, err)
		}
		if i > 0 && !s.Rewound() {
			t.Fatalf("%s: the network was rebuilt", stop.name)
		}
		fresh, err := spin.New(stop.cfg)
		if err != nil {
			t.Fatalf("%s: %v", stop.name, err)
		}
		net := s.Network()
		sch, isSpin := net.Config().Scheme.(*spinscheme.Scheme)
		for r := range net.NumRouters() {
			a := net.Router(r).Agent()
			switch {
			case stop.cfg.Scheme == "" && a != nil:
				t.Fatalf("%s: router %d kept an agent (%T) through a rewind without a scheme", stop.name, r, a)
			case stop.cfg.Scheme != "" && a == nil:
				t.Fatalf("%s: router %d has no agent", stop.name, r)
			case isSpin && a != sch.Agents()[r]:
				t.Fatalf("%s: router %d's agent is not the scheme's", stop.name, r)
			case isSpin && i > 0 && stop.recycles != (a == last[r]):
				t.Fatalf("%s: router %d's agent recycled = %v, want %v", stop.name, r, a == last[r], stop.recycles)
			}
			if _, stale := a.(*spinscheme.Agent); stale && !isSpin {
				t.Fatalf("%s: router %d kept the last run's SPIN agent", stop.name, r)
			}
			// At cycle 0 every agent holds what a fresh build's does. This is
			// where a field a recycled agent kept shows, even one (like SPIN's
			// detection backoff) that the first cycles of a run overwrite.
			if got, want := agentState(a), agentState(fresh.Network().Router(r).Agent()); got != want {
				t.Fatalf("%s: router %d starts with agent\n%s\nnot the fresh build's\n%s", stop.name, r, got, want)
			}
		}
		got, want := run(s), run(fresh)
		if got.Stats.Ejected == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the rewound run differs from a fresh build's:\nrewound %+v\nfresh   %+v", stop.name, got, want)
		}
		last = last[:0]
		for r := range net.NumRouters() {
			last = append(last, net.Router(r).Agent())
		}
	}
}

// agentState prints every field of a, with pointers (to its scheme, router
// and VCs, which differ between two networks) masked.
func agentState(a sim.Agent) string {
	return pointers.ReplaceAllString(fmt.Sprintf("%T %+v", a, a), "0x")
}

var pointers = regexp.MustCompile(`0x[0-9a-f]+`)

// TestFailedResetLeavesNothingBehind: after a Reset that fails the
// Simulation holds nothing (so nothing half-built can be run by mistake),
// and the next Reset builds from scratch.
func TestFailedResetLeavesNothingBehind(t *testing.T) {
	good := spin.Config{Topology: "mesh:4x4", Routing: "xy", Traffic: "uniform_random", Rate: 0.2, Seed: 2}
	s, err := spin.New(good)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Network()
	for name, bad := range map[string]spin.Config{
		"topology": {Topology: "blob:3"},
		"scheme":   {Topology: "mesh:4x4", Scheme: "warp_drive"},
		"routing":  {Topology: "mesh:4x4", Routing: "nope"},
		"traffic":  {Topology: "mesh:4x4", Routing: "xy", Traffic: "nope"},
		"network":  {Topology: "mesh:4x4", Routing: "xy", VCsPerVNet: 33},
	} {
		if err := s.Reset(bad); err == nil {
			t.Fatalf("bad %s accepted", name)
		}
		if s.Network() != nil || s.Topology() != nil {
			t.Fatalf("bad %s: the failed Reset left a network or topology behind", name)
		}
		if err := s.Reset(good); err != nil {
			t.Fatal(err)
		}
		if s.Network() == nil || s.Network() == first {
			t.Fatalf("bad %s: the Reset after a failure did not build afresh", name)
		}
		s.Run(300)
		if s.Stats().Ejected == 0 {
			t.Fatalf("bad %s: nothing delivered after recovery", name)
		}
	}
}

// TestSeededTopologyRebuilt: the seed picks an irregular mesh's faulty
// links and a jellyfish's wiring, so one Simulation taken through two seeds
// must hold the two graphs fresh builds hold, not share the first. Every
// family goes through, so that a new seeded one Reset does not know about
// fails here; the others must keep their graph across seeds. A Pool must draw
// the same line between shapes.
func TestSeededTopologyRebuilt(t *testing.T) {
	seeded := 0
	for _, spec := range []string{"mesh:4x4", "torus:4x4", "ring:6", "dragonfly:2,4,2,9", "fattree:4,2,2", "irregular:8x8:4", "jellyfish:16,1,4"} {
		s := new(spin.Simulation)
		var held [2]topology.Topology
		var fresh [2][]topology.Link
		for i, seed := range []int64{5, 6} {
			if err := s.Reset(spin.Config{Topology: spec, Routing: "min_adaptive", Scheme: "spin", Seed: seed}); err != nil {
				t.Fatal(err)
			}
			topo, err := spin.BuildTopology(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			held[i], fresh[i] = s.Topology(), topo.Links()
			if !reflect.DeepEqual(held[i].Links(), fresh[i]) {
				t.Fatalf("%s seed %d: the Simulation's graph is not the one the seed builds", spec, seed)
			}
		}
		same := reflect.DeepEqual(fresh[0], fresh[1])
		if same != (held[0] == held[1]) {
			t.Fatalf("%s: seeds build one graph = %v, Reset kept the graph = %v", spec, same, held[0] == held[1])
		} else if !same {
			seeded++
		}
		// A Pool keys its idle simulations likewise: the other seed is the
		// same shape exactly when it is the same graph.
		pool := spin.NewPool(1)
		pool.Put(s) // at seed 6
		back, err := pool.Get(spin.Config{Topology: spec, Routing: "min_adaptive", Scheme: "spin", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Topology().Links(), fresh[0]) || back.Rewound() != same || (back == s) != same {
			t.Fatalf("%s: a pool holding seed 6 answered seed 5 with the same simulation = %v, rewound = %v; same graph = %v", spec, back == s, back.Rewound(), same)
		}
	}
	if seeded != 2 {
		t.Fatalf("%d families built different graphs for different seeds, want irregular and jellyfish", seeded)
	}
}

// TestSetupAllocBudget: what a point of a sweep pays before its first cycle.
// A fresh build is slabs (10,558 objects at the parent, most of them one VC
// each and one sort per routing-table entry); a rewind recycles the scheme's
// agents and allocates the scheme value, the traffic generator and little
// else (3 objects, 672 bytes where it allocated 67 and 17,056 bytes while
// every rewind built new agents).
func TestSetupAllocBudget(t *testing.T) {
	cfg := spin.Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 1, VCsPerVNet: 3, Traffic: "uniform_random", Rate: 0.1}
	build := testing.AllocsPerRun(5, func() {
		if _, err := spin.New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	s, err := spin.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000) // grow the flit buffers and free lists a rewind keeps
	var bytes uint64
	rewind := testing.AllocsPerRun(5, func() {
		before := heapAllocated()
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		bytes = heapAllocated() - before
	})
	t.Logf("spin.New: %.0f objects; Reset: %.0f objects, %d bytes", build, rewind, bytes)
	if build > 1500 {
		t.Errorf("spin.New allocates %.0f objects, budget 1500", build)
	}
	if rewind > 10 || bytes > 2<<10 {
		t.Errorf("Reset allocates %.0f objects and %d bytes, budget 10 and 2 KB", rewind, bytes)
	}
}

func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
