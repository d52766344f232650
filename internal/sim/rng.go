package sim

import (
	"math/rand"
	"strconv"
)

// RNG discipline: instead of one shared generator whose draw sequence
// depends on iteration order, every router and every terminal owns an
// independent stream seeded from (Config.Seed, entity key). The sequence
// each entity observes is then a function of the configuration alone,
// never of which other entities drew before it — what lets Step skip idle
// routers and walk the busy ones in any order.

// splitmix64 is a tiny (16-byte) rand.Source64. The default Go source
// carries ~5 KB of state per instance, which at one stream per router
// plus one per terminal would dominate the simulator's footprint on
// 1024-node topologies; splitmix64 passes the statistical bar for
// tie-breaking and Bernoulli draws at 0.3% of the size.
type splitmix64 struct{ state uint64 }

// splitmixGamma is splitmix64's state increment: a draw adds it, so
// subtracting it k times puts the last k draws back.
const splitmixGamma = 0x9e3779b97f4a7c15

func (s *splitmix64) Uint64() uint64 {
	s.state += splitmixGamma
	return mix64(s.state)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// Stream is one entity's private stream: a splitmix64 generator, read
// through the math/rand methods of its Rand (Float64, Intn, ExpFloat64, and
// &Rand wherever a *rand.Rand is taken) or, for Bernoulli trials, in its
// own integer domain (Hit, Misses). Both read the same draws in the same
// order. The Rand is held by value, so a network's streams are one slab.
type Stream struct {
	src splitmix64
	rand.Rand
	// ahead is how many turns the terminal's last turn settled with Misses
	// (the engine zeroes it before each turn): the draws the network puts
	// back if generation stops before those turns come.
	ahead int64
}

// NewStream returns a stream seeded with seed, as the network seeds an
// entity's stream with EntitySeed.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.init()
	s.Seed(seed)
	return s
}

// init points s's Rand at its own generator.
func (s *Stream) init() { s.Rand = *rand.New(&s.src) }

// float64Redraw is the least Int63 value that rand.Float64 maps to 1.0,
// which it discards and draws again: float64 rounds every value from here
// up to 2^63.
const float64Redraw = 1<<63 - 1<<9

// Chance is a probability p settled once into the integer domain of a
// stream's draws: Stream.Hit(c) answers exactly what rng.Float64() < p
// would, from exactly the same draws, with one compare instead of a
// conversion and a division.
type Chance struct{ below uint64 }

// NewChance settles p: below is the least Int63 value v for which
// float64(v)/2^63 < p is false — rand.Float64's own expression, which is
// monotone in v, so the values that pass are exactly those below it.
func NewChance(p float64) Chance {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Chance{below: lo}
}

// admits reports whether the Int63 value v passes the trial.
func (c Chance) admits(v uint64) bool { return v < c.below }

// Hit runs one Bernoulli trial of c: rng.Float64() < p, redraw at 1.0
// included.
func (s *Stream) Hit(c Chance) bool {
	for {
		if v := s.src.Uint64() >> 1; v < float64Redraw {
			return c.admits(v)
		}
	}
}

// Misses settles a terminal's next turns ahead of time: it runs up to n
// trials of c, one per turn, and returns k, the number that missed before
// the first that would hit. The k misses are consumed; the hit is not, so
// the next Hit on the stream draws it again. A draw that rand.Float64
// would discard ends the run the same way, leaving Hit to discard it.
//
// It is the last draw of a turn, and the source names now+1+k as its next
// turn: the k settled turns are the ones just before it, which lets the
// network put them back (unread) if generation pauses first.
func (s *Stream) Misses(c Chance, n int64) int64 {
	// A miss is a value in [below, float64Redraw): one unsigned compare.
	span, state := float64Redraw-min(c.below, float64Redraw), s.src.state
	for k := int64(0); k < n; k++ {
		if v := mix64(state+splitmixGamma) >> 1; v-c.below >= span {
			s.src.state, s.ahead = state, k
			return k
		}
		state += splitmixGamma
	}
	s.src.state, s.ahead = state, n
	return n
}

// unread puts the stream's last k draws back.
func (s *Stream) unread(k int64) { s.src.state -= uint64(k) * splitmixGamma }

// mix64 is the splitmix64 finalizer, identical to runner.SeedFor's.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EntitySeed derives a per-entity stream seed from the simulation seed
// and a stable entity key. The derivation mirrors runner.SeedFor exactly
// (FNV-1a over the little-endian base followed by the key bytes,
// finalized with mix64), so entity streams and sweep-point seeds come
// from one documented scheme. The hash is spelled out because Reset
// reseeds every stream of a network per sweep point: hash/fnv's costs two
// heap objects a call.
func EntitySeed(base int64, key string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(base>>(8*i)))) * 1099511628211
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int64(mix64(h))
}

// RouterKey is the entity key of router id's stream.
func RouterKey(id int) string { return "R:" + strconv.Itoa(id) }

// TerminalKey is the entity key of terminal id's stream.
func TerminalKey(id int) string { return "T:" + strconv.Itoa(id) }
