// Package routing implements the routing algorithms evaluated in the SPIN
// paper: deterministic and turn-model mesh routing (XY, West-first),
// fully-adaptive minimal routing, Duato escape-VC routing, dimension-ordered
// torus routing, dragonfly minimal and UGAL routing, and the paper's FAvORS
// one-VC fully-adaptive algorithm (minimal and non-minimal variants).
//
// All algorithms implement sim.RoutingAlgorithm. Route is invoked once per
// router visit (as in Garnet), so adaptive algorithms bind their port
// choice to the congestion state observed on arrival.
package routing

import (
	"fmt"

	"repro/internal/sim"
)

// pickAdaptive chooses one output port from candidates using the FAvORS
// selection function: prefer a random port that has a free downstream VC
// (lightly loaded network); otherwise take the port whose downstream VCs
// have been active for the fewest cycles (least contended).
func pickAdaptive(r *sim.Router, ports []int, vnet int, mask uint32, length int) int {
	var free [8]int
	nfree := 0
	for _, p := range ports {
		if r.FreeVCAt(p, vnet, mask, length) {
			if nfree < len(free) {
				free[nfree] = p
				nfree++
			}
		}
	}
	if nfree > 0 {
		return free[r.RNG().Intn(nfree)]
	}
	best, bestT := ports[0], int64(1)<<62
	for _, p := range ports {
		if t := r.MinActiveTime(p, vnet, mask); t < bestT {
			best, bestT = p, t
		}
	}
	return best
}

func mustPorts(name string, ports []int, router, dst int) {
	if len(ports) == 0 {
		panic(fmt.Sprintf("routing %s: no ports from router %d toward %d", name, router, dst))
	}
}
