package spin_test

import (
	"reflect"
	"sync"
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// TestPoolBound: a pool keeps at most its bound of idle simulations and
// drops the least recently returned first; a nil pool and a pool of bound 0
// keep nothing; a Simulation whose Reset failed is not kept either.
func TestPoolBound(t *testing.T) {
	shape := func(vcs int) spin.Config {
		return spin.Config{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: vcs, Traffic: "uniform_random", Rate: 0.2}
	}
	p := spin.NewPool(2)
	var sims []*spin.Simulation
	for vcs := 1; vcs <= 4; vcs++ { // bound + 2 distinct shapes, all out at once
		s, err := p.Get(shape(vcs))
		if err != nil || s.Rewound() {
			t.Fatalf("%d VCs: %v, rewound = %v", vcs, err, s.Rewound())
		}
		s.Run(200)
		sims = append(sims, s)
	}
	for _, s := range sims {
		p.Put(s)
	}
	// Returned in the order 1, 2, 3, 4: 3 and 4 are left.
	for _, want := range []struct {
		vcs     int
		rewound bool
	}{{3, true}, {1, false}, {4, true}, {2, false}} {
		s, err := p.Get(shape(want.vcs))
		if err != nil || s.Rewound() != want.rewound {
			t.Fatalf("%d VCs: %v, rewound = %v, want %v", want.vcs, err, s.Rewound(), want.rewound)
		}
	}
	if builds, rewinds := p.Setups(); builds != 6 || rewinds != 2 {
		t.Fatalf("%d builds, %d rewinds, want 6 and 2", builds, rewinds)
	}
	if _, err := p.Get(spin.Config{Topology: "blob:3"}); err == nil {
		t.Fatal("a bad config got a simulation")
	}
	p.Put(new(spin.Simulation)) // nothing to keep
	if s, _ := p.Get(shape(1)); s.Rewound() {
		t.Fatal("the pool kept an empty Simulation and rewound it")
	}
	for _, none := range []*spin.Pool{nil, spin.NewPool(0)} {
		s, err := none.Get(shape(1))
		if err != nil {
			t.Fatal(err)
		}
		none.Put(s)
		if again, _ := none.Get(shape(1)); again == s || again.Rewound() {
			t.Fatal("a pool that keeps nothing handed a simulation back")
		}
	}
}

// TestPoolPrefersSameRun: of two idle simulations of one shape, Get hands
// back the one whose last run had the config's scheme and routing (whose
// agents and routing tables the rewind keeps), not merely the most recently
// returned, and both are rewound.
func TestPoolPrefersSameRun(t *testing.T) {
	shape := spin.Config{Topology: "mesh:4x4", VCsPerVNet: 2, Traffic: "uniform_random", Rate: 0.2}
	spinCfg, bubbleCfg := shape, shape
	spinCfg.Routing, spinCfg.Scheme = "min_adaptive", "spin"
	bubbleCfg.Routing, bubbleCfg.Scheme = "escape_vc", "static_bubble"
	p := spin.NewPool(2)
	held := map[string]*spin.Simulation{}
	for _, cfg := range []spin.Config{spinCfg, bubbleCfg} {
		s, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(200)
		held[cfg.Scheme] = s
	}
	p.Put(held["spin"])
	p.Put(held["static_bubble"])
	for i, cfg := range []spin.Config{spinCfg, bubbleCfg, bubbleCfg, spinCfg} {
		cfg.Seed = int64(i + 1)
		s, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s != held[cfg.Scheme] || !s.Rewound() {
			t.Fatalf("Get %d (%s): the %s simulation = %v, rewound = %v", i, cfg.Scheme, cfg.Scheme, s == held[cfg.Scheme], s.Rewound())
		}
		s.Run(200)
		p.Put(s)
	}
	if builds, rewinds := p.Setups(); builds != 2 || rewinds != 4 {
		t.Fatalf("%d builds, %d rewinds, want 2 and 4", builds, rewinds)
	}
}

// TestPoolConcurrent: eight goroutines take, run and return simulations of
// three shapes through one small pool; every run must read exactly as a
// fresh build of its config does, whoever had the network before. Under
// -race this is also the test that no Simulation is in two hands at once.
func TestPoolConcurrent(t *testing.T) {
	cfgs := []spin.Config{
		{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 1, Traffic: "uniform_random", Rate: 0.3},
		{Topology: "mesh:4x4", Routing: "westfirst", VCsPerVNet: 2, Traffic: "transpose", Rate: 0.2},
		{Topology: "torus:4x4", Routing: "favors_min", Scheme: "spin", VCsPerVNet: 1, Traffic: "tornado", Rate: 0.3},
	}
	run := func(s *spin.Simulation) sim.Stats {
		s.Run(400)
		return *s.Stats()
	}
	want := map[string]sim.Stats{}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			cfg.Seed = seed
			s, err := spin.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[cfg.Key()] = run(s)
		}
	}
	p := spin.NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				cfg.Seed = int64(1 + (g*5+i)%4)
				s, err := p.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got := run(s); got.Ejected == 0 || !reflect.DeepEqual(got, want[cfg.Key()]) {
					t.Errorf("%+v through the pool (rewound = %v) differs from a fresh build's:\npooled %+v\nfresh  %+v", cfg, s.Rewound(), got, want[cfg.Key()])
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
	if builds, rewinds := p.Setups(); builds+rewinds != 96 || rewinds == 0 {
		t.Fatalf("%d builds, %d rewinds of 96 runs", builds, rewinds)
	}
}

// TestPoolShapesNormalized: a pool compares shapes on normalized configs, so
// a shorthand config rewinds the network its spelled-out twin was built for,
// and the other way round.
func TestPoolShapesNormalized(t *testing.T) {
	short := spin.Config{Topology: "mesh:4x4", Scheme: "spin", Traffic: "uniform_random", Rate: 0.2}
	p := spin.NewPool(1)
	for _, pair := range [][2]spin.Config{{short.Normalized(), short}, {short, short.Normalized()}} {
		s, err := p.Get(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		p.Put(s)
		back, err := p.Get(pair[1])
		if err != nil || back != s || !back.Rewound() {
			t.Fatalf("%+v after %+v: %v, same simulation = %v, rewound = %v", pair[1], pair[0], err, back == s, back.Rewound())
		}
	}
}
