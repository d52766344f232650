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
// forensics CDG cut read them. A new routing is one RoutingEntry: its CDG,
// and so its verdict, is built from the routing it makes.

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
	// VC to route on (escape_vc's adaptive class). Build refuses fewer,
	// and more than sim.MaxVCsPerVNet; Verdict analyses from one VC up, so
	// spincheck can show what a floor prevents.
	MinVCs int
	// Schemeless: deadlock-free at MinVCs without a recovery scheme, by the
	// theorem Verdict names there.
	Schemeless bool
	// Escape is the routing's escape VC mask, if it has one: Duato's
	// escape sub-network is its candidate set restricted to these VCs.
	Escape uint32
	build  func(target) cdg.Routing
}

// routing builds the routing for topo at vcs VCs per vnet, refusing fewer
// than floor.
func (e *RoutingEntry) routing(topo topology.Topology, vcs, floor int) (cdg.Routing, error) {
	t := targetOf(topo, vcs)
	switch {
	case !t.fits(e.Needs):
		return nil, fmt.Errorf("spin: %s routing needs %s", e.Name, e.Needs)
	case vcs < floor:
		return nil, fmt.Errorf("spin: %s needs >= %d VCs per vnet", e.Name, floor)
	case vcs > sim.MaxVCsPerVNet:
		return nil, fmt.Errorf("spin: at most %d VCs per vnet, got %d", sim.MaxVCsPerVNet, vcs)
	}
	return e.build(t), nil
}

// Build makes the routing for topo at vcs VCs per vnet.
func (e *RoutingEntry) Build(topo topology.Topology, vcs int) (sim.RoutingAlgorithm, error) {
	return e.routing(topo, vcs, e.MinVCs)
}

// Theorem names what proves a routing deadlock-free (Table I's theories).
type Theorem string

// The verdicts RoutingEntry.Verdict reaches.
const (
	Dally         Theorem = "Dally"          // the routing's own CDG is acyclic
	Duato         Theorem = "Duato"          // its escape sub-network is acyclic and always requested
	NeedsRecovery Theorem = "needs recovery" // neither: pair it with a recovery scheme such as SPIN
)

// Verdict names the theorem that proves the routing deadlock-free on topo
// at vcs VC classes, analysing the routing Build makes (below MinVCs too).
// It returns the routing's own CDG.
func (e *RoutingEntry) Verdict(topo topology.Topology, vcs int) (Theorem, *cdg.Graph, error) {
	rt, err := e.routing(topo, vcs, 1)
	if err != nil {
		return "", nil, err
	}
	theorem, g := verdict(topo, vcs, rt, e.Escape)
	return theorem, g, nil
}

// verdict is Dally's theorem when rt's own CDG is acyclic; else Duato's
// when every state that CDG's walk reaches requests some of the escape VCs
// and their sub-network is acyclic; else NeedsRecovery. It returns rt's
// own CDG.
func verdict(topo topology.Topology, vcs int, rt cdg.Routing, escape uint32) (Theorem, *cdg.Graph) {
	g := cdg.Build(topo, vcs, rt, sim.AllVCs)
	switch {
	case g.Acyclic():
		return Dally, g
	case g.Offered&escape != 0 && cdg.Build(topo, vcs, rt, escape).Acyclic():
		return Duato, g
	}
	return NeedsRecovery, g
}

// Routings is the routing table; "" names min_adaptive.
var Routings = []RoutingEntry{
	{Name: "xy", Needs: MeshTopology, MinVCs: 1, Schemeless: true,
		build: func(t target) cdg.Routing { return &routing.XY{Mesh: t.mesh} }},
	{Name: "westfirst", Needs: MeshTopology, MinVCs: 1, Schemeless: true,
		build: func(t target) cdg.Routing { return &routing.WestFirst{Mesh: t.mesh} }},
	{Name: "min_adaptive", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.MinAdaptive{Topo: t.topo} }},
	// VC 0 is EscapeVC's dimension-ordered escape channel.
	{Name: "escape_vc", Needs: MeshTopology, MinVCs: 2, Schemeless: true, Escape: 1,
		build: func(t target) cdg.Routing { return &routing.EscapeVC{Mesh: t.mesh, VCs: t.vcs} }},
	{Name: "favors_min", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.FAvORS{Topo: t.topo} }},
	{Name: "favors_nmin", Needs: AnyTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.FAvORS{Topo: t.topo, NonMinimal: true} }},
	{Name: "torus_dor", Needs: TorusTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.TorusDOR{Mesh: t.mesh} }},
	{Name: "dfly_min", Needs: DragonflyTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.DflyMinimal{Dfly: t.dfly, VCs: t.vcs} }},
	{Name: "dfly_min_ladder", Needs: DragonflyTopology, MinVCs: 2, Schemeless: true,
		build: func(t target) cdg.Routing { return &routing.DflyMinimal{Dfly: t.dfly, VCLadder: true, VCs: t.vcs} }},
	{Name: "ugal_ladder", Needs: DragonflyTopology, MinVCs: 3, Schemeless: true,
		build: func(t target) cdg.Routing { return &routing.UGAL{Dfly: t.dfly, VCLadder: true, VCs: t.vcs} }},
	{Name: "ugal_spin", Needs: DragonflyTopology, MinVCs: 1,
		build: func(t target) cdg.Routing { return &routing.UGAL{Dfly: t.dfly, VCs: t.vcs} }},
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
// and the schemes.
func Names() (topologies, routings, schemes string) {
	var t, r, s []string
	for _, f := range Topologies {
		t = append(t, f.Usage)
	}
	for _, e := range Routings {
		r = append(r, e.Name)
	}
	for _, e := range Schemes {
		s = append(s, e.Name)
	}
	join := func(l []string) string { return strings.Join(l, ", ") }
	return join(t), join(r), join(s)
}
