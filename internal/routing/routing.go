// Package routing implements the routing algorithms evaluated in the SPIN
// paper: deterministic and turn-model mesh routing (XY, West-first),
// fully-adaptive minimal routing, Duato escape-VC routing, dimension-ordered
// torus routing, dragonfly minimal and UGAL routing, and the paper's FAvORS
// one-VC fully-adaptive algorithm (minimal and non-minimal variants).
//
// All algorithms implement sim.RoutingAlgorithm. Route is invoked once per
// router visit (as in Garnet), so adaptive algorithms bind their port
// choice to the congestion state observed on arrival.
//
// Each algorithm also has a Candidates method: the full set of requests its
// Route chooses from. Route is written as a choice from that set, and
// internal/cdg builds the channel dependency graph from it, so the static
// verdicts are about the code the simulator runs. A routing whose source
// decision may send a packet via an intermediate router says so with a
// Valiant method.
package routing

import (
	"fmt"

	"repro/internal/sim"
)

// candidates is the method every routing here has; internal/cdg names it
// cdg.Routing.
type candidates interface {
	Candidates(router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest
}

// pickOne is Route for a routing that takes one of its candidates: it
// gathers them in buf's spare capacity and keeps the one pickAdaptive
// chooses.
func pickOne(c candidates, r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	n := len(buf)
	buf = c.Candidates(r.ID, inPort, p, buf)
	return append(buf[:n], pickAdaptive(r, buf[n:], p))
}

// pickAdaptive chooses one of the candidate requests using the FAvORS
// selection function: prefer a random port that has a free downstream VC
// (lightly loaded network); otherwise take the port whose downstream VCs
// have been active for the fewest cycles (least contended).
func pickAdaptive(r *sim.Router, cands []sim.PortRequest, p *sim.Packet) sim.PortRequest {
	if len(cands) == 0 {
		panic(fmt.Sprintf("routing: no ports from router %d toward %d", r.ID, p.RouteDst()))
	}
	var free [8]int
	nfree := 0
	for i, c := range cands {
		if r.FreeVCAt(c.Port, p.VNet, c.VCMask, p.Length) {
			if nfree < len(free) {
				free[nfree] = i
				nfree++
			}
		}
	}
	if nfree > 0 {
		return cands[free[r.RNG().Intn(nfree)]]
	}
	best, bestT := cands[0], int64(1)<<62
	for _, c := range cands {
		if t := r.MinActiveTime(c.Port, p.VNet, c.VCMask); t < bestT {
			best, bestT = c, t
		}
	}
	return best
}

// requests appends one request on mask per port to buf.
func requests(buf []sim.PortRequest, ports []int, mask uint32) []sim.PortRequest {
	for _, p := range ports {
		buf = append(buf, sim.PortRequest{Port: p, VCMask: mask})
	}
	return buf
}
