// Package spin is a Go reproduction of "Synchronized Progress in
// Interconnection Networks (SPIN): A New Theory for Deadlock Freedom"
// (Ramrakhyani, Gratz, Krishna — ISCA 2018).
//
// It bundles a cycle-accurate virtual-cut-through network simulator, the
// topologies and routing algorithms of the paper's evaluation, all four
// prior deadlock-freedom frameworks (Dally turn models and VC ladders,
// Duato escape VCs, bubble flow control, deflection routing), and SPIN
// itself: a distributed deadlock-recovery protocol that detects a cyclic
// buffer dependency with a timeout-triggered probe, announces a common
// spin cycle with a move message, and resolves the deadlock by moving
// every packet of the cycle forward one hop simultaneously.
//
// The top-level API builds simulations from declarative Config values:
//
//	sim, err := spin.New(spin.Config{
//	    Topology: "mesh:8x8",
//	    Routing:  "favors_min",
//	    Scheme:   "spin",
//	    VCsPerVNet: 1,
//	    Traffic:  "uniform_random",
//	    Rate:     0.30,
//	})
//	sim.Run(100_000)
//	fmt.Println(sim.AvgLatency(), sim.Throughput())
//
// The named configurations of the paper's Table III are available through
// Preset. Lower-level control (custom topologies, hand-injected packets,
// the deadlock oracle) is reachable through the Network method.
package spin

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Simulation is a runnable network instance. It belongs to one goroutine.
type Simulation struct {
	cfg  Config
	net  *sim.Network
	topo topology.Topology
	alg  sim.RoutingAlgorithm // built for RoutingOf(cfg), kept across Reset
	// rewound: the last Reset kept the network it found instead of building one.
	rewound bool
}

// New builds a Simulation from cfg.
func New(cfg Config) (*Simulation, error) {
	s := new(Simulation)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds s to cycle 0 of a run of cfg, indistinguishable from
// New(cfg), rebuilding only what cfg changed: the topology is kept while its
// spec string is (a seeded family — irregular, jellyfish — also needs the
// same seed), the routing object while RoutingOf(cfg), VC count and
// topology are (its lazily built tables are a function of those, and a
// scheme's forced routing is kept like a named one), and the network is
// rewound in place (sim.Network.Reset) while its shape is. The scheme value
// and the traffic source are always new; the scheme recycles the per-router
// agents the network's last run left, when they are its own kind, rewritten
// as it would build them. Stats, events and results already taken
// from s stay valid; anything attached to Network() is dropped. A failed
// Reset leaves s unusable until a Reset succeeds.
func (s *Simulation) Reset(cfg Config) error { return s.reset(cfg.Normalized()) }

// reset is Reset of a normalized config.
func (s *Simulation) reset(cfg Config) (err error) {
	was := *s
	*s = Simulation{}
	topo, alg, net := was.topo, was.alg, was.net
	if topo == nil || cfg.Topology != was.cfg.Topology || seeded(cfg.Topology) && cfg.Seed != was.cfg.Seed {
		if topo, err = BuildTopology(cfg.Topology, cfg.Seed); err != nil {
			return err
		}
		alg, net = nil, nil
	}
	sch, t := LookupScheme(cfg.Scheme), targetOf(topo, cfg.VCsPerVNet)
	switch {
	case sch == nil:
		return fmt.Errorf("spin: unknown scheme %q", cfg.Scheme)
	case !t.fits(sch.Needs):
		return fmt.Errorf("spin: %s needs %s", sch.Name, sch.Needs)
	}
	var scheme sim.Scheme
	if sch.build != nil {
		scheme = sch.build(cfg, t)
	}
	if alg == nil || RoutingOf(cfg) != RoutingOf(was.cfg) || cfg.VCsPerVNet != was.cfg.VCsPerVNet {
		if alg, err = BuildRouting(RoutingOf(cfg), topo, cfg.VCsPerVNet); err != nil {
			return err
		}
	}
	simCfg := sim.Config{
		Topology:   topo,
		Routing:    alg,
		Scheme:     scheme,
		VNets:      cfg.VNets,
		VCsPerVNet: cfg.VCsPerVNet,
		VCDepth:    cfg.VCDepth,
		Seed:       cfg.Seed,
		StatsStart: cfg.Warmup,
	}
	// A network of another shape is not rewound but replaced.
	if net == nil || net.Reset(simCfg) != nil {
		if net, err = sim.NewNetwork(simCfg); err != nil {
			return err
		}
	}
	gen, err := cfg.source(net.Config())
	if err != nil {
		return err
	}
	net.SetTraffic(gen)
	*s = Simulation{cfg: cfg, net: net, topo: topo, alg: alg, rewound: net == was.net}
	return nil
}

// Rewound reports whether the last Reset rewound the network s already had
// (false: it built one).
func (s *Simulation) Rewound() bool { return s.rewound }

// Pool holds idle Simulations for callers that run many configurations over
// few network shapes (a figure's points, a daemon's misses), so that a
// network is built when its shape is new, not when a job is. It is safe for
// concurrent use; a nil *Pool holds nothing (Get builds, Put drops).
type Pool struct {
	mu              sync.Mutex
	idle            []*Simulation // least recently returned first, at most bound
	bound           int
	builds, rewinds atomic.Int64
}

// NewPool returns a pool that keeps at most bound idle Simulations, dropping
// the least recently returned first.
func NewPool(bound int) *Pool { return &Pool{bound: bound} }

// sameShape reports whether a network built for a can be rewound to b, both
// normalized: topology spec (and seed, where it picks the graph), VNets,
// VCsPerVNet, VCDepth.
func sameShape(a, b Config) bool {
	return a.Topology == b.Topology && a.VNets == b.VNets && a.VCsPerVNet == b.VCsPerVNet && a.VCDepth == b.VCDepth &&
		(a.Seed == b.Seed || !seeded(a.Topology))
}

// Get returns a Simulation Reset to cfg: an idle one of cfg's shape if the
// pool holds one, otherwise a new one. Among idle ones of the shape it
// prefers the most recently returned whose last run had cfg's scheme and
// routing, whose agents and routing tables the rewind then keeps, and
// otherwise takes the most recently returned. The caller owns it until Put.
func (p *Pool) Get(cfg Config) (*Simulation, error) {
	cfg = cfg.Normalized()
	var s *Simulation
	if p != nil {
		p.mu.Lock()
		pick := -1
		for i := len(p.idle) - 1; i >= 0; i-- {
			if was := p.idle[i].cfg; sameShape(was, cfg) {
				if pick < 0 {
					pick = i
				}
				if was.Scheme == cfg.Scheme && RoutingOf(was) == RoutingOf(cfg) {
					pick = i
					break
				}
			}
		}
		if pick >= 0 {
			s = p.idle[pick]
			p.idle = slices.Delete(p.idle, pick, pick+1)
		}
		p.mu.Unlock()
	}
	if s == nil {
		s = new(Simulation)
	}
	if err := s.reset(cfg); err != nil {
		return nil, err
	}
	if p != nil && s.rewound {
		p.rewinds.Add(1)
	} else if p != nil {
		p.builds.Add(1)
	}
	return s, nil
}

// Put hands s back for a later Get. Only a Simulation whose run completed
// belongs here: one that ended in an error, a cancellation, a timeout or a
// panic is dropped by its caller instead.
func (p *Pool) Put(s *Simulation) {
	if p == nil || s.net == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, s)
	if len(p.idle) > p.bound {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// Setups reports how many Gets built a network and how many rewound one.
func (p *Pool) Setups() (builds, rewinds int64) {
	if p == nil {
		return 0, 0
	}
	return p.builds.Load(), p.rewinds.Load()
}

// Run advances the simulation by cycles.
func (s *Simulation) Run(cycles int64) { s.net.Run(cycles) }

// Drain stops traffic and runs until empty (or the budget ends),
// reporting whether everything was delivered.
func (s *Simulation) Drain(maxCycles int64) bool { return s.net.Drain(maxCycles) }

// Network exposes the underlying simulator for advanced use (manual
// injection, the deadlock oracle, per-router state).
func (s *Simulation) Network() *sim.Network { return s.net }

// Topology reports the simulated topology.
func (s *Simulation) Topology() topology.Topology { return s.topo }

// Stats returns the raw counters.
func (s *Simulation) Stats() *sim.Stats { return s.net.Stats() }

// AvgLatency reports mean packet latency over the measurement window.
func (s *Simulation) AvgLatency() float64 { return s.net.Stats().AvgLatency() }

// Throughput reports accepted flits/terminal/cycle over the measurement
// window.
func (s *Simulation) Throughput() float64 {
	return s.net.Stats().Throughput(s.topo.NumTerminals())
}

// Spins reports how many synchronized movements were performed.
func (s *Simulation) Spins() int64 { return s.net.Stats().Spins }

// Deadlocked consults the global oracle (measurement/testing aid — no
// distributed scheme uses it).
func (s *Simulation) Deadlocked() bool { return s.net.Deadlocked() }
