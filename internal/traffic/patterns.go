// Package traffic generates network workloads: the standard synthetic
// permutation/randomised patterns of the paper's evaluation (uniform
// random, bit complement, transpose, tornado, neighbor, bit reverse, bit
// rotation, shuffle) and the PARSEC-like application traces used for the
// EDP experiment.
package traffic

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Pattern maps a source terminal to its destination terminal. Synthetic
// patterns are defined over terminal ids; coordinate-based patterns
// (transpose, tornado) derive dimensions from the topology.
type Pattern interface {
	// Dest returns the destination terminal for a packet from src. rng
	// serves randomised patterns (uniform random).
	Dest(src int, rng *rand.Rand) int
}

// uniform selects destinations uniformly over all other terminals.
type uniform struct{ n int }

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

// patterns is the one table of the synthetic patterns used across the
// evaluation: each canonical name, the other spellings ByName accepts for
// it, and its constructor.
var patterns = []struct {
	name    string
	aliases []string
	build   func(topology.Topology) (Pattern, error)
}{
	{"uniform_random", []string{"uniform", "ur"}, func(t topology.Topology) (Pattern, error) { return Uniform(t.NumTerminals()), nil }},
	{"bit_complement", []string{"bitcomp"}, func(t topology.Topology) (Pattern, error) { return BitComplement(t.NumTerminals()) }},
	{"bit_reverse", []string{"bitrev"}, func(t topology.Topology) (Pattern, error) { return BitReverse(t.NumTerminals()) }},
	{"bit_rotation", []string{"bitrot"}, func(t topology.Topology) (Pattern, error) { return BitRotation(t.NumTerminals()) }},
	{"shuffle", nil, func(t topology.Topology) (Pattern, error) { return Shuffle(t.NumTerminals()) }},
	{"neighbor", nil, func(t topology.Topology) (Pattern, error) { return Neighbor(t.NumTerminals()), nil }},
	{"transpose", nil, Transpose},
	{"tornado", nil, func(t topology.Topology) (Pattern, error) { return Tornado(t), nil }},
}

// CanonicalName returns the canonical name of the pattern name spells, or
// name itself when no pattern has that spelling.
func CanonicalName(name string) string {
	for _, p := range patterns {
		if p.name == name || slices.Contains(p.aliases, name) {
			return p.name
		}
	}
	return name
}

// ByName resolves a synthetic pattern by its canonical name or an alias.
func ByName(name string, topo topology.Topology) (Pattern, error) {
	name = CanonicalName(name)
	for _, p := range patterns {
		if p.name == name {
			return p.build(topo)
		}
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// Synthetic is an open-loop Bernoulli source over a Pattern: every cycle
// each terminal independently generates a packet with probability
// Rate/E[len] so that offered load equals Rate flits/terminal/cycle. A
// DataFrac fraction of packets are long (dataLen flits); the rest are
// single-flit control packets, matching the paper's 1-flit/5-flit mix.
//
// A terminal's turn settles its trials ahead, one draw per cycle in a
// tight loop, and asks for its next turn at the first that hits (or at the
// limit): the cycles in between cost the engine nothing.
type Synthetic struct {
	Pattern  Pattern
	Rate     float64 // offered flits/terminal/cycle
	DataFrac float64 // fraction of packets that are long (default 0.5)
	VNets    int     // spread packets round-robin over vnets (default 1)

	// next rotates the vnet per terminal (not globally), so each
	// terminal's emission sequence is independent of the others' and of
	// the order terminals are visited in. It grows as terminals first emit.
	next []int32

	// DataFrac with its default applied, and the per-cycle injection
	// chance Rate/E[len] it implies: resolved once, by the first Generate,
	// instead of per turn. The exported fields must not change afterwards.
	frac   float64
	inject sim.Chance
}

// dataLen is the length of a long (data) packet, in flits.
const dataLen = 5

// Generate implements sim.TrafficGen.
func (s *Synthetic) Generate(now, limit int64, src int, rng *sim.Stream, emit func(sim.PacketSpec)) int64 {
	if s.frac == 0 {
		s.frac = cmp.Or(s.DataFrac, 0.5)
		meanLen := s.frac*dataLen + (1 - s.frac)
		s.inject = sim.NewChance(s.Rate / meanLen)
	}
	if rng.Hit(s.inject) {
		s.emitPacket(src, rng, emit)
	}
	return now + 1 + rng.Misses(s.inject, limit-now-1)
}

// emitPacket draws the shape of a packet src generates and emits it.
func (s *Synthetic) emitPacket(src int, rng *sim.Stream, emit func(sim.PacketSpec)) {
	length := 1
	if rng.Float64() < s.frac {
		length = dataLen
	}
	vnet := 0
	if s.VNets > 1 {
		for len(s.next) <= src {
			s.next = append(s.next, make([]int32, max(len(s.next), 64))...) // doubling, never per terminal
		}
		vnet = int(s.next[src]) % s.VNets
		s.next[src]++
	}
	dst := s.Pattern.Dest(src, &rng.Rand)
	if dst == src {
		return
	}
	emit(sim.PacketSpec{Dst: dst, Length: length, VNet: vnet})
}
