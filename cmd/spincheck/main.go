// Command spincheck runs static channel-dependency-graph analysis on a
// (topology, routing) pair: it reports whether the configuration is
// deadlock-free by Dally's theorem (acyclic CDG) or, for escape_vc, by
// Duato's (acyclic escape sub-network) and, for cyclic ones, the size of the
// dependency cycles a recovery scheme like SPIN must be able to break. The
// graph is built from the routing the simulator runs; the routing names,
// their topology needs and verdicts are the root package's routing table
// (spin.Routings, RoutingEntry.Verdict). A count below a routing's VC floor
// is analysed, to show what the floor prevents; one above 32 is refused.
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spincheck: ")
	topologies, routings, _ := spin.Names()
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
	theorem, g, err := e.Verdict(topo, *vcs)
	if err != nil {
		log.Fatal(err)
	}
	verdicts := map[spin.Theorem]string{
		spin.Dally:         "deadlock-free by Dally's theorem (no recovery scheme needed)",
		spin.Duato:         fmt.Sprintf("deadlock-free by Duato's theorem: every state requests its escape VCs (mask %#x), whose sub-network is acyclic", e.Escape),
		spin.NeedsRecovery: "NOT avoidance-deadlock-free: pair this routing with a recovery scheme (e.g. SPIN)",
	}
	fmt.Printf("topology: %s (%d routers, %d links)\n", topo.Name(), topo.NumRouters(), len(topo.Links()))
	fmt.Printf("routing:  %s with %d VC class(es)\n", e.Name, *vcs)
	fmt.Println(g.Describe())
	fmt.Println("verdict: ", verdicts[theorem])
}
