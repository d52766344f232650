package sim

import "strconv"

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

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

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
