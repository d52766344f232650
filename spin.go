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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"math/rand"

	"repro/internal/bubble"
	"repro/internal/routing"
	"repro/internal/sim"
	spinimpl "repro/internal/spin"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Config declares a simulation.
type Config struct {
	// Topology: "mesh:XxY", "torus:XxY", "ring:N", "dragonfly:p,a,h,g",
	// "dragonfly1024", "irregular:XxY:F" (F faulty links),
	// "jellyfish:N,P,DEG" (random regular graph), "fattree:E,S,P"
	// (two-level folded Clos).
	Topology string
	// Routing: "xy", "westfirst", "min_adaptive", "escape_vc",
	// "favors_min", "favors_nmin", "dfly_min", "dfly_min_ladder",
	// "ugal_ladder", "ugal_spin".
	Routing string
	// Scheme: "" (none), "spin", "static_bubble", "ring_bubble".
	Scheme string
	// Traffic: a synthetic pattern name ("uniform_random",
	// "bit_complement", "transpose", "tornado", "neighbor", "bit_reverse",
	// "bit_rotation", "shuffle") or "" for manual injection.
	Traffic string
	// Rate is offered load in flits/terminal/cycle.
	Rate float64
	// DataFrac is the long-packet fraction (default 0.5 of packets are
	// 5-flit data, the rest 1-flit control, as in the paper).
	DataFrac float64

	VNets      int   // default 1
	VCsPerVNet int   // default 1
	VCDepth    int   // default 5
	Seed       int64 // deterministic seed
	Warmup     int64 // cycles before measurement starts

	// TDD overrides SPIN's (and Static Bubble's) detection threshold
	// (default 128, the paper's value).
	TDD int64
	// SPIN fine-tuning (zero values = paper defaults).
	SPIN spinimpl.Config
}

// Simulation is a runnable network instance. It belongs to one goroutine.
type Simulation struct {
	cfg  Config
	net  *sim.Network
	topo topology.Topology
	alg  sim.RoutingAlgorithm // BuildRouting's, kept across Reset; nil under a scheme that forces its own
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
// same seed), the routing object while its name, VC count and topology are
// (its lazily built tables are a function of those), and the network is
// rewound in place (sim.Network.Reset) while its shape is; scheme and traffic
// generator are always built afresh. Stats, events and results already taken
// from s stay valid; anything attached to Network() is dropped. A failed
// Reset leaves s unusable until a Reset succeeds.
func (s *Simulation) Reset(cfg Config) (err error) {
	was := *s
	*s = Simulation{}
	topo, alg, net := was.topo, was.alg, was.net
	vcs := cfg.VCsPerVNet
	if vcs == 0 {
		vcs = 1
	}
	if topo == nil || cfg.Topology != was.cfg.Topology || topologyUsesSeed(cfg.Topology) && cfg.Seed != was.cfg.Seed {
		if topo, err = BuildTopology(cfg.Topology, cfg.Seed); err != nil {
			return err
		}
		alg, net = nil, nil
	}
	var scheme sim.Scheme
	var forcedRouting sim.RoutingAlgorithm
	switch cfg.Scheme {
	case "", "none":
	case "spin":
		sc := cfg.SPIN
		if cfg.TDD != 0 {
			sc.TDD = cfg.TDD
		}
		scheme = spinimpl.New(sc)
	case "static_bubble":
		m, ok := topo.(*topology.Mesh)
		if !ok {
			return fmt.Errorf("spin: static_bubble needs a mesh topology")
		}
		sb := &bubble.StaticBubble{Mesh: m, TDD: cfg.TDD}
		scheme = sb
		forcedRouting = sb.Routing(vcs)
	case "ring_bubble":
		m, ok := topo.(*topology.Mesh)
		if !ok || !m.Torus {
			return fmt.Errorf("spin: ring_bubble needs a torus topology")
		}
		scheme = &bubble.RingBubble{Mesh: m}
	default:
		return fmt.Errorf("spin: unknown scheme %q", cfg.Scheme)
	}
	routing := forcedRouting
	if routing != nil {
		alg = nil
	} else {
		if alg == nil || cfg.Routing != was.cfg.Routing || cfg.VCsPerVNet != was.cfg.VCsPerVNet {
			if alg, err = BuildRouting(cfg.Routing, topo, vcs); err != nil {
				return err
			}
		}
		routing = alg
	}
	var gen sim.TrafficGen
	if cfg.Traffic != "" {
		pat, err := traffic.ByName(cfg.Traffic, topo)
		if err != nil {
			return err
		}
		gen = &traffic.Synthetic{Pattern: pat, Rate: cfg.Rate, DataFrac: cfg.DataFrac, VNets: max(1, cfg.VNets)}
	}
	simCfg := sim.Config{
		Topology:   topo,
		Routing:    routing,
		Scheme:     scheme,
		Traffic:    gen,
		VNets:      cfg.VNets,
		VCsPerVNet: vcs,
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

// sameShape reports whether a network built for a can be rewound to b:
// topology spec (and seed, where it picks the graph), VNets, VCsPerVNet,
// VCDepth, as spelled.
func sameShape(a, b Config) bool {
	return a.Topology == b.Topology && a.VNets == b.VNets && a.VCsPerVNet == b.VCsPerVNet && a.VCDepth == b.VCDepth &&
		(a.Seed == b.Seed || !topologyUsesSeed(a.Topology))
}

// Get returns a Simulation Reset to cfg: an idle one of cfg's shape if the
// pool holds one (the most recently returned), otherwise a new one. The
// caller owns it until Put.
func (p *Pool) Get(cfg Config) (*Simulation, error) {
	var s *Simulation
	if p != nil {
		p.mu.Lock()
		for i := len(p.idle) - 1; i >= 0; i-- {
			if sameShape(p.idle[i].cfg, cfg) {
				s = p.idle[i]
				p.idle = slices.Delete(p.idle, i, i+1)
				break
			}
		}
		p.mu.Unlock()
	}
	if s == nil {
		s = new(Simulation)
	}
	if err := s.Reset(cfg); err != nil {
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

// BuildTopology parses a topology spec string.
func BuildTopology(spec string, seed int64) (topology.Topology, error) {
	if spec == "" {
		return nil, fmt.Errorf("spin: empty topology spec")
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "mesh", "torus", "irregular":
		if len(parts) < 2 {
			return nil, fmt.Errorf("spin: %s needs dimensions, e.g. %q", parts[0], parts[0]+":8x8")
		}
		x, y, err := parseXY(parts[1])
		if err != nil {
			return nil, err
		}
		switch parts[0] {
		case "mesh":
			return topology.NewMesh(x, y, 1)
		case "torus":
			return topology.NewTorus(x, y, 1)
		default:
			faults := 4
			if len(parts) >= 3 {
				f, err := strconv.Atoi(parts[2])
				if err != nil {
					return nil, fmt.Errorf("spin: bad fault count %q", parts[2])
				}
				faults = f
			}
			return topology.NewIrregularMesh(x, y, 1, faults, rand.New(rand.NewSource(seed+1)))
		}
	case "ring":
		if len(parts) < 2 {
			return nil, fmt.Errorf("spin: ring needs a size, e.g. \"ring:8\"")
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		return topology.NewRing(n, 1, true)
	case "dragonfly":
		if len(parts) < 2 {
			return nil, fmt.Errorf("spin: dragonfly needs p,a,h,g")
		}
		nums := strings.Split(parts[1], ",")
		if len(nums) != 4 {
			return nil, fmt.Errorf("spin: dragonfly needs p,a,h,g, got %q", parts[1])
		}
		v := make([]int, 4)
		for i, s := range nums {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			v[i] = n
		}
		return topology.NewDragonfly(v[0], v[1], v[2], v[3], 1, 3)
	case "dragonfly1024":
		return topology.NewDragonfly(4, 8, 4, 32, 1, 3)
	case "jellyfish":
		v, err := parseInts(parts, 3, "jellyfish:N,P,DEG")
		if err != nil {
			return nil, err
		}
		return topology.NewJellyfish(v[0], v[1], v[2], 1, rand.New(rand.NewSource(seed+2)))
	case "fattree":
		v, err := parseInts(parts, 3, "fattree:E,S,P")
		if err != nil {
			return nil, err
		}
		return topology.NewFatTree(v[0], v[1], v[2], 1)
	}
	return nil, fmt.Errorf("spin: unknown topology %q", spec)
}

// topologyUsesSeed reports whether BuildTopology's result for spec depends
// on its seed: the families above that take a rand.Rand.
func topologyUsesSeed(spec string) bool {
	return strings.HasPrefix(spec, "irregular:") || strings.HasPrefix(spec, "jellyfish:")
}

// parseInts parses "name:a,b,c"-style specs.
func parseInts(parts []string, n int, usage string) ([]int, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("spin: topology needs parameters, e.g. %q", usage)
	}
	nums := strings.Split(parts[1], ",")
	if len(nums) != n {
		return nil, fmt.Errorf("spin: expected %q, got %q", usage, parts[1])
	}
	out := make([]int, n)
	for i, f := range nums {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseXY(s string) (int, int, error) {
	xy := strings.SplitN(s, "x", 2)
	if len(xy) != 2 {
		return 0, 0, fmt.Errorf("spin: bad dimensions %q", s)
	}
	x, err := strconv.Atoi(xy[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(xy[1])
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

// BuildRouting resolves a routing algorithm by name for a topology.
func BuildRouting(name string, topo topology.Topology, vcs int) (sim.RoutingAlgorithm, error) {
	mesh, isMesh := topo.(*topology.Mesh)
	dfly, isDfly := topo.(*topology.Dragonfly)
	switch name {
	case "xy":
		if !isMesh {
			return nil, fmt.Errorf("spin: xy routing needs a mesh")
		}
		return &routing.XY{Mesh: mesh}, nil
	case "westfirst":
		if !isMesh {
			return nil, fmt.Errorf("spin: westfirst routing needs a mesh")
		}
		return &routing.WestFirst{Mesh: mesh}, nil
	case "min_adaptive", "":
		return &routing.MinAdaptive{Topo: topo}, nil
	case "escape_vc":
		if !isMesh {
			return nil, fmt.Errorf("spin: escape_vc routing needs a mesh")
		}
		if vcs < 2 {
			return nil, fmt.Errorf("spin: escape_vc needs >= 2 VCs per vnet")
		}
		return &routing.EscapeVC{Mesh: mesh, VCs: vcs}, nil
	case "favors_min":
		return &routing.FAvORS{Topo: topo}, nil
	case "favors_nmin":
		return &routing.FAvORS{Topo: topo, NonMinimal: true}, nil
	case "dfly_min", "dfly_min_ladder":
		if !isDfly {
			return nil, fmt.Errorf("spin: %s needs a dragonfly", name)
		}
		return &routing.DflyMinimal{Dfly: dfly, VCLadder: name == "dfly_min_ladder", VCs: vcs}, nil
	case "ugal_ladder", "ugal_spin":
		if !isDfly {
			return nil, fmt.Errorf("spin: %s needs a dragonfly", name)
		}
		return &routing.UGAL{Dfly: dfly, VCLadder: name == "ugal_ladder", VCs: vcs}, nil
	}
	return nil, fmt.Errorf("spin: unknown routing %q", name)
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
