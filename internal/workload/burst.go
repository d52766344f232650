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
//
// A terminal sleeps through its idle gaps. During a burst its inner
// source settles turns ahead no further than the burst's end, so the draw
// that ends the burst comes where it always did in the stream.
type Burst struct {
	Inner   sim.TrafficGen
	OnMean  int64 // mean burst length in cycles (>= 1)
	OffMean int64 // mean idle gap in cycles (>= 1)

	terms []burstState // per terminal, grown as terminals are first seen
}

// burstState is one terminal's on/off process. until is the cycle at which
// the current state ends, 0 before the terminal's first draw (a draw is at
// least one cycle, so a started terminal never reads 0).
type burstState struct {
	on    bool
	until int64
}

func draw(rng *sim.Stream, mean int64) int64 {
	if mean <= 1 {
		return 1
	}
	return 1 + int64(rng.ExpFloat64()*float64(mean-1))
}

// Generate implements sim.TrafficGen.
func (b *Burst) Generate(now, limit int64, src int, rng *sim.Stream, emit func(sim.PacketSpec)) int64 {
	for len(b.terms) <= src {
		b.terms = append(b.terms, make([]burstState, max(len(b.terms), 64))...) // doubling, never per terminal
	}
	t := &b.terms[src]
	if t.until == 0 {
		// Every terminal starts mid-burst; the first draw desynchronises
		// the terminals since each uses its own stream.
		t.on = true
		t.until = now + draw(rng, b.OnMean)
	}
	for now >= t.until {
		t.on = !t.on
		mean := b.OnMean
		if !t.on {
			mean = b.OffMean
		}
		t.until += draw(rng, mean)
	}
	if !t.on {
		return t.until
	}
	return min(b.Inner.Generate(now, min(limit, t.until), src, rng, emit), t.until)
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
