package spin

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/bubble"
	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/sim"
	spinimpl "repro/internal/spin"
	"repro/internal/topology"
)

// This file declares every name a Config can carry — topology families,
// routings and schemes — once, in three tables. BuildTopology, BuildRouting
// and Reset build from them; the harness generator, spind, spincheck and the
// forensics CDG cut read them. A new routing is one RoutingEntry.

// Needs is the kind of topology a routing or scheme runs on.
type Needs int

// The topology kinds.
const (
	AnyTopology       Needs = iota
	MeshTopology            // *topology.Mesh: a mesh or a torus
	TorusTopology           // a *topology.Mesh with wraparound links
	DragonflyTopology       // *topology.Dragonfly
)

// Fits reports whether topo is of kind n.
func (n Needs) Fits(topo topology.Topology) bool { return targetOf(topo, 0).fits(n) }

func (n Needs) String() string {
	return [...]string{"any topology", "a mesh", "a torus", "a dragonfly"}[n]
}

// target is what an entry builds for: the topology, as the concrete type
// its Needs name, and the VCs per vnet.
type target struct {
	topo topology.Topology
	mesh *topology.Mesh      // a mesh or torus, else nil
	dfly *topology.Dragonfly // a dragonfly, else nil
	vcs  int
}

func targetOf(topo topology.Topology, vcs int) target {
	m, _ := topo.(*topology.Mesh)
	d, _ := topo.(*topology.Dragonfly)
	return target{topo, m, d, vcs}
}

func (t target) fits(n Needs) bool {
	// Indexed by Needs.
	return [...]bool{true, t.mesh != nil, t.mesh != nil && t.mesh.Torus, t.dfly != nil}[n]
}

// RoutingEntry declares one routing name.
type RoutingEntry struct {
	Name  string
	Needs Needs
	// MinVCs is the VC floor per vnet: below it the routing deadlocks (a
	// ladder with fewer rungs than its paths have global hops) or has no
	// VC to route on (escape_vc's adaptive class). Build and Model refuse
	// fewer, and more than sim.MaxVCsPerVNet.
	MinVCs int
	// Schemeless: deadlock-free at MinVCs without a recovery scheme, by the
	// theorem Verdict names there.
	Schemeless bool
	// Proof names the analysis-only entry whose acyclic model proves a
	// Schemeless routing whose own CDG is cyclic (Duato's condition).
	Proof string
	// build makes the routing (nil: an analysis-only name, which spincheck
	// models but nothing runs); model is its internal/cdg dependency
	// function.
	build func(target) sim.RoutingAlgorithm
	model func(target) cdg.DependencyFunc
}

// Runs reports whether the routing can be built, not only analysed.
func (e *RoutingEntry) Runs() bool { return e.build != nil }

func (e *RoutingEntry) target(topo topology.Topology, vcs int) (target, error) {
	t := targetOf(topo, vcs)
	switch {
	case !t.fits(e.Needs):
		return t, fmt.Errorf("spin: %s routing needs %s", e.Name, e.Needs)
	case vcs < e.MinVCs:
		return t, fmt.Errorf("spin: %s needs >= %d VCs per vnet", e.Name, e.MinVCs)
	case vcs > sim.MaxVCsPerVNet:
		return t, fmt.Errorf("spin: at most %d VCs per vnet, got %d", sim.MaxVCsPerVNet, vcs)
	}
	return t, nil
}

// Build makes the routing for topo at vcs VCs per vnet.
func (e *RoutingEntry) Build(topo topology.Topology, vcs int) (sim.RoutingAlgorithm, error) {
	t, err := e.target(topo, vcs)
	if err == nil && !e.Runs() {
		err = fmt.Errorf("spin: %s is an analysis-only routing", e.Name)
	}
	if err != nil {
		return nil, err
	}
	return e.build(t), nil
}

// Model returns the routing's static dependency function on topo at vcs VC
// classes, under the same needs and floor as Build.
func (e *RoutingEntry) Model(topo topology.Topology, vcs int) (cdg.DependencyFunc, error) {
	t, err := e.target(topo, vcs)
	if err != nil {
		return nil, err
	}
	return e.model(t), nil
}

// Theorem names what proves a routing deadlock-free (Table I's theories).
type Theorem string

// The verdicts RoutingEntry.Verdict reaches.
const (
	Dally         Theorem = "Dally"          // the routing's own CDG is acyclic
	Duato         Theorem = "Duato"          // its Proof's CDG, an escape sub-network, is acyclic
	NeedsRecovery Theorem = "needs recovery" // neither: pair it with a recovery scheme such as SPIN
)

// Graph builds the routing's CDG on topo at vcs VC classes, under Model's
// needs and floor.
func (e *RoutingEntry) Graph(topo topology.Topology, vcs int) (*cdg.Graph, error) {
	dep, err := e.Model(topo, vcs)
	if err != nil {
		return nil, err
	}
	return cdg.Build(topo, vcs, dep), nil
}

// Verdict names the theorem that proves the routing deadlock-free on topo
// at vcs VC classes: Dally's when its own CDG is acyclic, else Duato's when
// Proof's is, else none (NeedsRecovery). It returns the routing's own graph.
func (e *RoutingEntry) Verdict(topo topology.Topology, vcs int) (Theorem, *cdg.Graph, error) {
	g, err := e.Graph(topo, vcs)
	switch {
	case err != nil:
		return "", nil, err
	case g.Acyclic():
		return Dally, g, nil
	case e.Proof == "":
		return NeedsRecovery, g, nil
	}
	escape, err := LookupRouting(e.Proof).Graph(topo, vcs)
	switch {
	case err != nil:
		return "", nil, err
	case escape.Acyclic():
		return Duato, g, nil
	}
	return NeedsRecovery, g, nil
}

// minAdaptiveModel is the model of every routing that takes any minimal
// port on any VC.
func minAdaptiveModel(t target) cdg.DependencyFunc { return cdg.MinAdaptiveDep(t.topo) }

// Routings is the routing table; "" names min_adaptive.
var Routings = []RoutingEntry{
	{Name: "xy", Needs: MeshTopology, MinVCs: 1, Schemeless: true,
		build: func(t target) sim.RoutingAlgorithm { return &routing.XY{Mesh: t.mesh} },
		model: func(t target) cdg.DependencyFunc { return cdg.XYDep(t.mesh) }},
	{Name: "westfirst", Needs: MeshTopology, MinVCs: 1, Schemeless: true,
		build: func(t target) sim.RoutingAlgorithm { return &routing.WestFirst{Mesh: t.mesh} },
		model: func(t target) cdg.DependencyFunc { return cdg.WestFirstDep(t.mesh) }},
	{Name: "min_adaptive", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.MinAdaptive{Topo: t.topo} },
		model: minAdaptiveModel},
	{Name: "escape_vc", Needs: MeshTopology, MinVCs: 2, Schemeless: true, Proof: "escape_subnet",
		build: func(t target) sim.RoutingAlgorithm { return &routing.EscapeVC{Mesh: t.mesh, VCs: t.vcs} },
		model: func(t target) cdg.DependencyFunc { return cdg.EscapeDep(t.mesh, t.vcs) }},
	{Name: "escape_subnet", Needs: MeshTopology, MinVCs: 1, Schemeless: true,
		model: func(t target) cdg.DependencyFunc { return cdg.EscapeSubgraphDep(t.mesh) }},
	{Name: "favors_min", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.FAvORS{Topo: t.topo} },
		model: minAdaptiveModel},
	{Name: "favors_nmin", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.FAvORS{Topo: t.topo, NonMinimal: true} },
		model: minAdaptiveModel},
	{Name: "torus_dor", Needs: TorusTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.TorusDOR{Mesh: t.mesh} },
		model: func(t target) cdg.DependencyFunc { return cdg.TorusDORDep(t.mesh) }},
	{Name: "dfly_min", Needs: DragonflyTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.DflyMinimal{Dfly: t.dfly, VCs: t.vcs} },
		model: minAdaptiveModel},
	{Name: "dfly_min_ladder", Needs: DragonflyTopology, MinVCs: 2, Schemeless: true,
		build: func(t target) sim.RoutingAlgorithm {
			return &routing.DflyMinimal{Dfly: t.dfly, VCLadder: true, VCs: t.vcs}
		},
		model: func(t target) cdg.DependencyFunc { return cdg.DflyLadderDep(t.dfly, t.vcs, false) }},
	{Name: "ugal_ladder", Needs: DragonflyTopology, MinVCs: 3, Schemeless: true,
		build: func(t target) sim.RoutingAlgorithm { return &routing.UGAL{Dfly: t.dfly, VCLadder: true, VCs: t.vcs} },
		model: func(t target) cdg.DependencyFunc { return cdg.DflyLadderDep(t.dfly, t.vcs, true) }},
	{Name: "ugal_spin", Needs: DragonflyTopology, MinVCs: 1,
		build: func(t target) sim.RoutingAlgorithm { return &routing.UGAL{Dfly: t.dfly, VCs: t.vcs} },
		model: minAdaptiveModel},
	{Name: "dfly_free", Needs: DragonflyTopology, MinVCs: 1, model: minAdaptiveModel},
}

// LookupRouting returns the routing entry called name ("" is min_adaptive),
// or nil.
func LookupRouting(name string) *RoutingEntry {
	return lookup(Routings, cmp.Or(name, "min_adaptive"), func(e *RoutingEntry) string { return e.Name })
}

// lookup returns the entry of table that nameOf calls name, or nil.
func lookup[E any](table []E, name string, nameOf func(*E) string) *E {
	for i := range table {
		if nameOf(&table[i]) == name {
			return &table[i]
		}
	}
	return nil
}

// BuildRouting resolves a routing algorithm by name for a topology.
func BuildRouting(name string, topo topology.Topology, vcs int) (sim.RoutingAlgorithm, error) {
	e := LookupRouting(name)
	if e == nil {
		return nil, fmt.Errorf("spin: unknown routing %q", name)
	}
	return e.Build(topo, vcs)
}

// SchemeEntry declares one deadlock scheme.
type SchemeEntry struct {
	Name  string
	Needs Needs
	// UsesTDD: the scheme has a detection timeout (Config.TDD).
	UsesTDD bool
	// Routing is the routing the scheme forces, overriding Config.Routing.
	Routing string
	build   func(Config, target) sim.Scheme // nil: no scheme
}

// Schemes is the scheme table; "" names none.
var Schemes = []SchemeEntry{
	{Name: "none"},
	{Name: "spin", UsesTDD: true, build: func(cfg Config, _ target) sim.Scheme {
		return spinimpl.New(spinimpl.Config{TDD: cfg.TDD, DisableProbe: cfg.Mutation == "no_probe", CountTruth: cfg.CountTruth})
	}},
	{Name: "static_bubble", Needs: MeshTopology, UsesTDD: true, Routing: "escape_vc",
		build: func(cfg Config, t target) sim.Scheme { return &bubble.StaticBubble{Mesh: t.mesh, TDD: cfg.TDD} }},
	{Name: "ring_bubble", Needs: TorusTopology,
		build: func(_ Config, t target) sim.Scheme { return &bubble.RingBubble{Mesh: t.mesh} }},
}

// LookupScheme returns the scheme entry called name ("" is none), or nil.
func LookupScheme(name string) *SchemeEntry {
	return lookup(Schemes, cmp.Or(name, "none"), func(e *SchemeEntry) string { return e.Name })
}

// RoutingOf names the routing a run of cfg uses: the one its scheme forces,
// else cfg.Routing.
func RoutingOf(cfg Config) string {
	if e := LookupScheme(cfg.Scheme); e != nil && e.Routing != "" {
		return e.Routing
	}
	return cfg.Routing
}

// TopologyFamily declares one topology spec family. Usage spells the spec,
// "name:args": each ":"-separated argument is integers joined by "x" or by
// ",", named by anything but a lower-case x. The first argument is required,
// later ones optional; build gets the integers in order.
type TopologyFamily struct {
	Usage string
	// Seeded: the family draws its graph from the seed, so two seeds are
	// two networks.
	Seeded bool
	build  func(v []int, seed int64) (topology.Topology, error)
}

// Topologies is the topology-family table.
var Topologies = []TopologyFamily{
	{Usage: "mesh:XxY", build: func(v []int, _ int64) (topology.Topology, error) { return topology.NewMesh(v[0], v[1], 1) }},
	{Usage: "torus:XxY", build: func(v []int, _ int64) (topology.Topology, error) { return topology.NewTorus(v[0], v[1], 1) }},
	{Usage: "irregular:XxY:F", Seeded: true, build: func(v []int, seed int64) (topology.Topology, error) {
		v = append(v, 4) // F, when the spec leaves it out
		return topology.NewIrregularMesh(v[0], v[1], 1, v[2], rand.New(rand.NewSource(seed+1)))
	}},
	{Usage: "ring:N", build: func(v []int, _ int64) (topology.Topology, error) { return topology.NewRing(v[0], 1, true) }},
	{Usage: "dragonfly:p,a,h,g", build: func(v []int, _ int64) (topology.Topology, error) {
		return topology.NewDragonfly(v[0], v[1], v[2], v[3], 1, 3)
	}},
	{Usage: "dragonfly1024", build: func([]int, int64) (topology.Topology, error) {
		return topology.NewDragonfly(4, 8, 4, 32, 1, 3)
	}},
	{Usage: "jellyfish:N,P,DEG", Seeded: true, build: func(v []int, seed int64) (topology.Topology, error) {
		return topology.NewJellyfish(v[0], v[1], v[2], 1, rand.New(rand.NewSource(seed+2)))
	}},
	{Usage: "fattree:E,S,P", build: func(v []int, _ int64) (topology.Topology, error) { return topology.NewFatTree(v[0], v[1], v[2], 1) }},
}

// family returns the entry of spec's family, or nil.
func family(spec string) *TopologyFamily {
	name, _, _ := strings.Cut(spec, ":")
	return lookup(Topologies, name, func(f *TopologyFamily) string {
		n, _, _ := strings.Cut(f.Usage, ":")
		return n
	})
}

// seeded reports whether spec's graph depends on the seed.
func seeded(spec string) bool { f := family(spec); return f != nil && f.Seeded }

// BuildTopology parses a topology spec string.
func BuildTopology(spec string, seed int64) (topology.Topology, error) {
	f := family(spec)
	if f == nil {
		return nil, fmt.Errorf("spin: unknown topology %q", spec)
	}
	v, err := f.args(spec)
	if err != nil {
		return nil, fmt.Errorf("spin: topology %q (want %s): %w", spec, f.Usage, err)
	}
	return f.build(v, seed)
}

// args reads spec's integers as f.Usage spells them. Arguments past the
// usage's are ignored.
func (f *TopologyFamily) args(spec string) ([]int, error) {
	got, want := strings.Split(spec, ":")[1:], strings.Split(f.Usage, ":")[1:]
	if len(want) > 0 && len(got) == 0 {
		return nil, errors.New("missing parameters")
	}
	var v []int
	for i := 0; i < min(len(got), len(want)); i++ {
		sep := "x"
		if strings.Contains(want[i], ",") {
			sep = ","
		}
		fields := strings.Split(got[i], sep)
		if n := strings.Count(want[i], sep) + 1; len(fields) != n {
			return nil, fmt.Errorf("%q: %d values, want %d", got[i], len(fields), n)
		}
		for _, s := range fields {
			if sep == "," {
				s = strings.TrimSpace(s) // "2, 4, 2, 9" reads
			}
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, err
			}
			v = append(v, n)
		}
	}
	return v, nil
}

// Names spells each table for usage text: the topology forms, the routings
// that run, every routing (the analysis-only ones too) and the schemes.
func Names() (topologies, routings, analysis, schemes string) {
	var t, r, a, s []string
	for _, f := range Topologies {
		t = append(t, f.Usage)
	}
	for i := range Routings {
		if a = append(a, Routings[i].Name); Routings[i].Runs() {
			r = append(r, Routings[i].Name)
		}
	}
	for _, e := range Schemes {
		s = append(s, e.Name)
	}
	join := func(l []string) string { return strings.Join(l, ", ") }
	return join(t), join(r), join(a), join(s)
}
