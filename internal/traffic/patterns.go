// Package traffic generates network workloads: the standard synthetic
// permutation/randomised patterns of the paper's evaluation (uniform
// random, bit complement, transpose, tornado, neighbor, bit reverse, bit
// rotation, shuffle) and the PARSEC-like application traces used for the
// EDP experiment.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Pattern maps a source terminal to its destination terminal. Synthetic
// patterns are defined over terminal ids; coordinate-based patterns
// (transpose, tornado) derive dimensions from the topology.
type Pattern interface {
	Name() string
	// Dest returns the destination terminal for a packet from src. rng
	// serves randomised patterns (uniform random).
	Dest(src int, rng *rand.Rand) int
}

// uniform selects destinations uniformly over all other terminals.
type uniform struct{ n int }

func (u uniform) Name() string { return "uniform_random" }
func (u uniform) Dest(src int, rng *rand.Rand) int {
	d := rng.Intn(u.n - 1)
	if d >= src {
		d++
	}
	return d
}

// Uniform returns the uniform-random pattern over n terminals.
func Uniform(n int) Pattern { return uniform{n} }

// bitComplement sends node b to ~b within log2(n) bits.
type bitComplement struct {
	n    int
	bits uint
}

func (p bitComplement) Name() string { return "bit_complement" }
func (p bitComplement) Dest(src int, _ *rand.Rand) int {
	return (^src) & (p.n - 1)
}

// BitComplement returns the bit-complement permutation (n must be a power
// of two).
func BitComplement(n int) (Pattern, error) {
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bit_complement needs power-of-two terminals, got %d", n)
	}
	return bitComplement{n: n, bits: uint(bits.TrailingZeros(uint(n)))}, nil
}

// bitReverse reverses the address bits.
type bitReverse struct {
	n    int
	bits uint
}

func (p bitReverse) Name() string { return "bit_reverse" }
func (p bitReverse) Dest(src int, _ *rand.Rand) int {
	return int(bits.Reverse64(uint64(src)) >> (64 - p.bits))
}

// BitReverse returns the bit-reversal permutation (power-of-two n).
func BitReverse(n int) (Pattern, error) {
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bit_reverse needs power-of-two terminals, got %d", n)
	}
	return bitReverse{n: n, bits: uint(bits.TrailingZeros(uint(n)))}, nil
}

// bitRotation rotates the address bits right by one.
type bitRotation struct {
	n    int
	bits uint
}

func (p bitRotation) Name() string { return "bit_rotation" }
func (p bitRotation) Dest(src int, _ *rand.Rand) int {
	return (src >> 1) | ((src & 1) << (p.bits - 1))
}

// BitRotation returns the bit-rotation permutation (power-of-two n).
func BitRotation(n int) (Pattern, error) {
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bit_rotation needs power-of-two terminals, got %d", n)
	}
	return bitRotation{n: n, bits: uint(bits.TrailingZeros(uint(n)))}, nil
}

// shuffle rotates the address bits left by one.
type shuffle struct {
	n    int
	bits uint
}

func (p shuffle) Name() string { return "shuffle" }
func (p shuffle) Dest(src int, _ *rand.Rand) int {
	return ((src << 1) | (src >> (p.bits - 1))) & (p.n - 1)
}

// Shuffle returns the perfect-shuffle permutation (power-of-two n).
func Shuffle(n int) (Pattern, error) {
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: shuffle needs power-of-two terminals, got %d", n)
	}
	return shuffle{n: n, bits: uint(bits.TrailingZeros(uint(n)))}, nil
}

// neighbor sends node i to node i+1 (mod n).
type neighbor struct{ n int }

func (p neighbor) Name() string { return "neighbor" }
func (p neighbor) Dest(src int, _ *rand.Rand) int {
	return (src + 1) % p.n
}

// Neighbor returns the nearest-neighbor pattern.
func Neighbor(n int) Pattern { return neighbor{n} }

// transpose swaps the (x, y) coordinates on a square mesh, or the
// high/low halves of the address otherwise.
type transpose struct {
	mesh *topology.Mesh
	n    int
	bits uint
}

func (p transpose) Name() string { return "transpose" }
func (p transpose) Dest(src int, _ *rand.Rand) int {
	if p.mesh != nil {
		x, y := p.mesh.Coords(src)
		return p.mesh.RouterAt(y, x)
	}
	half := p.bits / 2
	lo := src & (1<<half - 1)
	hi := src >> half
	return (lo << (p.bits - half)) | hi
}

// Transpose returns the matrix-transpose permutation. On a square mesh it
// swaps coordinates; on other power-of-two topologies it swaps address
// halves.
func Transpose(topo topology.Topology) (Pattern, error) {
	n := topo.NumTerminals()
	if m, ok := topo.(*topology.Mesh); ok && m.X == m.Y {
		return transpose{mesh: m, n: n}, nil
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: transpose needs a square mesh or power-of-two terminals")
	}
	return transpose{n: n, bits: uint(bits.TrailingZeros(uint(n)))}, nil
}

// tornado sends traffic halfway around each dimension: on a mesh/torus,
// dst_x = (x + ceil(X/2) - 1) mod X; on other topologies, half the
// terminal count away.
type tornado struct {
	mesh *topology.Mesh
	n    int
}

func (p tornado) Name() string { return "tornado" }
func (p tornado) Dest(src int, _ *rand.Rand) int {
	if p.mesh != nil {
		x, y := p.mesh.Coords(src)
		nx := (x + (p.mesh.X+1)/2 - 1) % p.mesh.X
		return p.mesh.RouterAt(nx, y)
	}
	return (src + p.n/2) % p.n
}

// Tornado returns the tornado pattern.
func Tornado(topo topology.Topology) Pattern {
	if m, ok := topo.(*topology.Mesh); ok {
		return tornado{mesh: m, n: topo.NumTerminals()}
	}
	return tornado{n: topo.NumTerminals()}
}

// ByName resolves the synthetic patterns used across the evaluation.
func ByName(name string, topo topology.Topology) (Pattern, error) {
	n := topo.NumTerminals()
	switch name {
	case "uniform_random", "uniform", "ur":
		return Uniform(n), nil
	case "bit_complement", "bitcomp":
		return BitComplement(n)
	case "bit_reverse", "bitrev":
		return BitReverse(n)
	case "bit_rotation", "bitrot":
		return BitRotation(n)
	case "shuffle":
		return Shuffle(n)
	case "neighbor":
		return Neighbor(n), nil
	case "transpose":
		return Transpose(topo)
	case "tornado":
		return Tornado(topo), nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// Synthetic is an open-loop Bernoulli source over a Pattern: every cycle
// each terminal independently generates a packet with probability
// Rate/E[len] so that offered load equals Rate flits/terminal/cycle. A
// DataFrac fraction of packets are long (dataLen flits); the rest are
// single-flit control packets, matching the paper's 1-flit/5-flit mix.
type Synthetic struct {
	Pattern  Pattern
	Rate     float64 // offered flits/terminal/cycle
	DataFrac float64 // fraction of packets that are long (default 0.5)
	VNets    int     // spread packets round-robin over vnets (default 1)

	// next rotates the vnet per terminal (not globally), so each
	// terminal's emission sequence is independent of the others' and of
	// the order terminals are visited in.
	next []int32

	// DataFrac with its default applied, and the per-cycle injection
	// probability Rate/E[len] it implies: resolved once, in
	// PrepareTerminals, instead of per terminal per cycle. The exported
	// fields must not change afterwards.
	frac, pInject float64
}

// dataLen is the length of a long (data) packet, in flits.
const dataLen = 5

// Name implements sim.TrafficGen.
func (s *Synthetic) Name() string {
	return fmt.Sprintf("%s@%.3f", s.Pattern.Name(), s.Rate)
}

// PrepareTerminals implements sim.TrafficPrep.
func (s *Synthetic) PrepareTerminals(n int) {
	if len(s.next) < n {
		s.next = make([]int32, n)
	}
	s.frac = s.DataFrac
	if s.frac == 0 {
		s.frac = 0.5
	}
	meanLen := s.frac*dataLen + (1 - s.frac)
	s.pInject = s.Rate / meanLen
}

// Generate implements sim.TrafficGen.
func (s *Synthetic) Generate(_ int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	if s.frac == 0 {
		// Driven without the engine's PrepareTerminals call (tests calling
		// Generate directly: the engine always prepares before stepping).
		s.PrepareTerminals(src + 1)
	}
	if rng.Float64() >= s.pInject {
		return
	}
	length := 1
	if rng.Float64() < s.frac {
		length = dataLen
	}
	vnet := 0
	if s.VNets > 1 {
		if src >= len(s.next) {
			s.PrepareTerminals(src + 1)
		}
		vnet = int(s.next[src]) % s.VNets
		s.next[src]++
	}
	dst := s.Pattern.Dest(src, rng)
	if dst == src {
		return
	}
	emit(sim.PacketSpec{Dst: dst, Length: length, VNet: vnet})
}
