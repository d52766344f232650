package traffic

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// AppProfile is a synthetic stand-in for one PARSEC benchmark's network
// traffic (DESIGN.md records the substitution: the paper drove the NoC
// from gem5 full-system runs over a directory protocol; the EDP
// comparison only needs per-benchmark offered load, locality and message
// mix, which are taken from published characterisations). Traffic runs
// over three virtual networks as a directory protocol does: requests
// (vnet 0, 1-flit), forwards/invalidations (vnet 1, 1-flit) and data
// responses (vnet 2, 5-flit).
type AppProfile struct {
	Name string
	// Rate is offered load in flits/node/cycle (well below synthetic
	// saturation — real applications filter traffic through caches).
	Rate float64
	// Locality is the probability a message targets a nearby node
	// (within 2 hops) rather than a uniform destination.
	Locality float64
	// DataRatio is the fraction of messages that are 5-flit data.
	DataRatio float64
}

// PARSEC returns the benchmark suite profiles used by the EDP experiment.
// Rates/localities are representative of published NoC characterisations
// of PARSEC working sets (light, cache-filtered traffic with varying
// sharing behaviour).
func PARSEC() []AppProfile {
	return []AppProfile{
		{Name: "blackscholes", Rate: 0.005, Locality: 0.3, DataRatio: 0.35},
		{Name: "bodytrack", Rate: 0.012, Locality: 0.4, DataRatio: 0.40},
		{Name: "canneal", Rate: 0.030, Locality: 0.1, DataRatio: 0.45},
		{Name: "dedup", Rate: 0.018, Locality: 0.3, DataRatio: 0.40},
		{Name: "ferret", Rate: 0.016, Locality: 0.3, DataRatio: 0.40},
		{Name: "fluidanimate", Rate: 0.010, Locality: 0.6, DataRatio: 0.40},
		{Name: "freqmine", Rate: 0.008, Locality: 0.4, DataRatio: 0.35},
		{Name: "streamcluster", Rate: 0.025, Locality: 0.2, DataRatio: 0.45},
		{Name: "swaptions", Rate: 0.004, Locality: 0.4, DataRatio: 0.35},
		{Name: "vips", Rate: 0.014, Locality: 0.3, DataRatio: 0.40},
		{Name: "x264", Rate: 0.020, Locality: 0.3, DataRatio: 0.40},
	}
}

// AppTraffic drives a simulation from an AppProfile over 3 vnets. Like
// Synthetic, a terminal's turn settles its injection trials ahead to the
// first that hits.
type AppTraffic struct {
	Profile AppProfile
	Topo    topology.Topology

	near [][]int // cached near-neighbour sets

	// inject is the per-cycle injection chance Rate/E[len], resolved by the
	// first Generate (ready); Profile must not change afterwards.
	inject sim.Chance
	ready  bool
}

// Generate implements sim.TrafficGen.
func (a *AppTraffic) Generate(now, limit int64, src int, rng *sim.Stream, emit func(sim.PacketSpec)) int64 {
	if !a.ready {
		p := a.Profile
		meanLen := p.DataRatio*5 + (1 - p.DataRatio)
		a.inject, a.ready = sim.NewChance(p.Rate/meanLen), true
	}
	if rng.Hit(a.inject) {
		a.emitPacket(src, rng, emit)
	}
	return now + 1 + rng.Misses(a.inject, limit-now-1)
}

// emitPacket draws the destination and class of a message src generates
// and emits it.
func (a *AppTraffic) emitPacket(src int, rng *sim.Stream, emit func(sim.PacketSpec)) {
	dst := a.pickDst(src, rng)
	if dst == src {
		return
	}
	if rng.Float64() < a.Profile.DataRatio {
		emit(sim.PacketSpec{Dst: dst, Length: 5, VNet: 2})
		return
	}
	vnet := 0
	if rng.Float64() < 0.4 {
		vnet = 1
	}
	emit(sim.PacketSpec{Dst: dst, Length: 1, VNet: vnet})
}

// pickDst honours the locality knob.
func (a *AppTraffic) pickDst(src int, rng *sim.Stream) int {
	n := a.Topo.NumTerminals()
	if rng.Float64() >= a.Profile.Locality {
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	}
	if a.near == nil {
		a.near = make([][]int, n)
	}
	if a.near[src] == nil {
		srcR := a.Topo.TerminalRouter(src)
		for t := 0; t < n; t++ {
			if t != src && a.Topo.Distance(srcR, a.Topo.TerminalRouter(t)) <= 2 {
				a.near[src] = append(a.near[src], t)
			}
		}
	}
	if len(a.near[src]) == 0 {
		return src
	}
	return a.near[src][rng.Intn(len(a.near[src]))]
}
