// Command spincheck runs static channel-dependency-graph analysis on a
// (topology, routing) pair: it reports whether the configuration is
// deadlock-free by Dally's theorem (acyclic CDG) and, for cyclic ones,
// the size of the dependency cycles a recovery scheme like SPIN must be
// able to break.
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spincheck: ")
	var (
		topoSpec = flag.String("topo", "mesh:8x8", "topology spec")
		routing  = flag.String("routing", "xy", "routing function (see cdg.DepFor): xy, westfirst, min_adaptive, favors_min, favors_nmin, escape_vc, escape_subnet, torus_dor, dfly_min_ladder, ugal_ladder, dfly_free, ugal_spin")
		vcs      = flag.Int("vcs", 1, "VC classes per link")
		seed     = flag.Int64("seed", 1, "seed for randomised topologies")
	)
	flag.Parse()

	topo, err := spin.BuildTopology(*topoSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := cdg.DepFor(*routing, topo, *vcs)
	if err != nil {
		log.Fatal(err)
	}
	g := cdg.Build(topo, *vcs, dep)
	fmt.Printf("topology: %s (%d routers, %d links)\n", topo.Name(), topo.NumRouters(), len(topo.Links()))
	fmt.Printf("routing:  %s with %d VC class(es)\n", *routing, *vcs)
	fmt.Println(g.Describe())
	if g.Acyclic() {
		fmt.Println("verdict:  deadlock-free by Dally's theorem (no recovery scheme needed)")
		return
	}
	cycles := g.Cycles()
	largest := 0
	for _, c := range cycles {
		if len(c) > largest {
			largest = len(c)
		}
	}
	fmt.Printf("verdict:  NOT avoidance-deadlock-free: %d cyclic component(s), largest %d channels\n", len(cycles), largest)
	fmt.Println("          pair this routing with a recovery scheme (e.g. SPIN)")
}
