// Command spincheck runs static channel-dependency-graph analysis on a
// (topology, routing) pair: it reports whether the configuration is
// deadlock-free by Dally's theorem (acyclic CDG) or, for escape_vc, by
// Duato's (acyclic escape sub-network) and, for cyclic ones, the size of the
// dependency cycles a recovery scheme like SPIN must be able to break. The
// routing names, their topology needs and VC floors are the root package's
// routing table (spin.Routings); a count below a routing's floor is refused.
//
// Usage:
//
//	spincheck -topo mesh:8x8 -routing xy
//	spincheck -topo mesh:8x8 -routing min_adaptive -vcs 3
//	spincheck -topo dragonfly:4,8,4,32 -routing dfly_min_ladder -vcs 2
package main

import (
	"flag"
	"fmt"
	"log"

	spin "repro"
	"repro/internal/cdg"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spincheck: ")
	topologies, _, routings, _ := spin.Names()
	var (
		topoSpec = flag.String("topo", "mesh:8x8", "topology spec: "+topologies)
		routing  = flag.String("routing", "xy", "routing function: "+routings)
		vcs      = flag.Int("vcs", 1, "VC classes per link")
		seed     = flag.Int64("seed", 1, "seed for randomised topologies")
	)
	flag.Parse()

	topo, err := spin.BuildTopology(*topoSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	e := spin.LookupRouting(*routing)
	if e == nil {
		log.Fatalf("unknown routing %q (want one of %s)", *routing, routings)
	}
	dep, err := e.Model(topo, *vcs)
	if err != nil {
		log.Fatal(err)
	}
	g := cdg.Build(topo, *vcs, dep)
	fmt.Printf("topology: %s (%d routers, %d links)\n", topo.Name(), topo.NumRouters(), len(topo.Links()))
	fmt.Printf("routing:  %s with %d VC class(es)\n", e.Name, *vcs)
	fmt.Println(g.Describe())
	switch {
	case g.Acyclic():
		fmt.Println("verdict:  deadlock-free by Dally's theorem (no recovery scheme needed)")
	case e.Proof != "" && acyclic(spin.LookupRouting(e.Proof), topo, *vcs):
		fmt.Printf("verdict:  deadlock-free by Duato's theorem: its escape sub-network (%s) is acyclic\n", e.Proof)
	default:
		fmt.Println("verdict:  NOT avoidance-deadlock-free: pair this routing with a recovery scheme (e.g. SPIN)")
	}
}

// acyclic reports whether e's model on topo at vcs VC classes has an
// acyclic CDG.
func acyclic(e *spin.RoutingEntry, topo topology.Topology, vcs int) bool {
	dep, err := e.Model(topo, vcs)
	return err == nil && cdg.Build(topo, vcs, dep).Acyclic()
}
