package workload

import (
	"math/rand"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// Burst modulates an inner generator with a per-terminal
// Markov on/off process: each terminal alternates between bursts (inner
// generator runs) and idle gaps (nothing injected), with exponentially
// distributed durations around OnMean/OffMean drawn from the terminal's
// private rng stream. State is strictly per-terminal, so the wrapper
// adds no dependence on the order terminals are visited in.
type Burst struct {
	Inner   sim.TrafficGen
	OnMean  int64 // mean burst length in cycles (>= 1)
	OffMean int64 // mean idle gap in cycles (>= 1)

	on    []bool
	until []int64 // cycle at which the current state ends; -1 = not started
}

// Name implements sim.TrafficGen.
func (b *Burst) Name() string { return b.Inner.Name() + "+burst" }

// PrepareTerminals implements sim.TrafficPrep.
func (b *Burst) PrepareTerminals(n int) {
	if tp, ok := b.Inner.(sim.TrafficPrep); ok {
		tp.PrepareTerminals(n)
	}
	if len(b.until) >= n {
		return
	}
	b.on = make([]bool, n)
	b.until = make([]int64, n)
	for i := range b.until {
		b.until[i] = -1
	}
}

func draw(rng *rand.Rand, mean int64) int64 {
	if mean <= 1 {
		return 1
	}
	return 1 + int64(rng.ExpFloat64()*float64(mean-1))
}

// Generate implements sim.TrafficGen.
func (b *Burst) Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	if src >= len(b.until) {
		b.PrepareTerminals(src + 1)
	}
	if b.until[src] < 0 {
		// Every terminal starts mid-burst; the first draw desynchronises
		// the terminals since each uses its own stream.
		b.on[src] = true
		b.until[src] = cycle + draw(rng, b.OnMean)
	}
	for cycle >= b.until[src] {
		b.on[src] = !b.on[src]
		mean := b.OnMean
		if !b.on[src] {
			mean = b.OffMean
		}
		b.until[src] += draw(rng, mean)
	}
	if !b.on[src] {
		return
	}
	b.Inner.Generate(cycle, src, rng, emit)
}

// Hotspot skews a destination pattern: with probability Frac a packet
// goes to one of the Hot terminals (uniformly chosen), otherwise the
// inner pattern decides. A draw that lands on the source itself falls
// through to the inner pattern rather than self-addressing.
type Hotspot struct {
	Inner traffic.Pattern
	Frac  float64
	Hot   []int
}

// Name implements traffic.Pattern.
func (h *Hotspot) Name() string { return h.Inner.Name() + "+hotspot" }

// Dest implements traffic.Pattern.
func (h *Hotspot) Dest(src int, rng *rand.Rand) int {
	if rng.Float64() < h.Frac {
		d := h.Hot[rng.Intn(len(h.Hot))]
		if d != src {
			return d
		}
	}
	return h.Inner.Dest(src, rng)
}
