// Package cache is a content-addressed result store for simulation
// serving: a key is the SHA-256 of a canonical request encoding plus a
// result-version string, and the value is the response bytes produced
// for it. Storage is two-tier — a bounded in-memory LRU in front of an
// optional on-disk JSON store — and Do adds singleflight deduplication
// so N concurrent identical requests cost exactly one computation.
//
// Determinism makes this safe: a simulation request's result is a pure
// function of its canonical encoding and the code version, so a cached
// value can be replayed byte-for-byte forever.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// KeyOf derives the content address of a request: SHA-256 over the
// result-version string, a separator that keeps (version, body) pairs
// unambiguous, and the canonical request bytes. Bumping the version
// string invalidates every prior entry, which is exactly what a change
// to simulator semantics requires.
func KeyOf(version string, canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// Digest is a content address as bytes, before KeyOf's hex: what the
// alias table is keyed by, so looking a body up builds no string.
type Digest [sha256.Size]byte

// Outcome classifies how Do satisfied a request.
type Outcome int

// Do outcomes.
const (
	// Hit: the value was already cached (memory or disk).
	Hit Outcome = iota
	// Miss: this call led the computation.
	Miss
	// Shared: an identical computation was already in flight; this call
	// waited for its result instead of starting another.
	Shared
)

// String names the outcome for response headers ("hit", "miss",
// "shared").
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Shared:
		return "shared"
	}
	return "unknown"
}

// Stats is a snapshot of the store's counters, polled by the metrics
// endpoint.
type Stats struct {
	Hits       int64 // Do calls answered from cache
	DiskHits   int64 // subset of Hits served from disk (memory miss)
	Misses     int64 // Do calls that led a computation
	Shared     int64 // Do calls that piggybacked on an in-flight one
	Errors     int64 // led computations that failed (never cached)
	Corrupt    int64 // on-disk entries evicted for failing validation
	MemEntries int   // current in-memory LRU population
}

// Store is the two-tier content-addressed store. The zero value is not
// usable; construct with Open.
type Store struct {
	dir string // "" = memory-only

	mu      sync.Mutex
	mem     map[string]*list.Element
	order   *list.List // front = most recently used
	maxMem  int
	alias   map[Digest]*list.Element // raw-body digest -> the memory-tier entry it spells
	flights map[string]*flight
	stats   Stats
}

type memEntry struct {
	key     string
	keyHdr  [1]string // key, as the X-Cache-Key header value an alias hit answers with
	val     []byte
	aliases []Digest // at most maxAliases, oldest first; die with the entry
}

// maxAliases bounds the spellings remembered per memory-tier entry, and
// with maxMem the alias table, whatever a client pads its requests with.
const maxAliases = 4

// flight is one in-progress computation plus its waiters.
type flight struct {
	done    chan struct{} // closed when val/err are final
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Open builds a store. dir is the on-disk tier's directory (created if
// missing); an empty dir selects memory-only operation. maxMem bounds
// the in-memory LRU entry count (0 = 1024).
func Open(dir string, maxMem int) (*Store, error) {
	if maxMem <= 0 {
		maxMem = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: create dir: %w", err)
		}
	}
	return &Store{
		dir:     dir,
		mem:     make(map[string]*list.Element),
		order:   list.New(),
		maxMem:  maxMem,
		alias:   make(map[Digest]*list.Element),
		flights: make(map[string]*flight),
	}, nil
}

// Get returns the cached value for key, consulting memory then disk and
// promoting disk hits into memory. The returned slice is shared; callers
// must not mutate it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if v, ok := s.getMemLocked(key); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false
	}
	v, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	// Every stored value is a complete JSON response; anything else on
	// disk — a torn write from a crashed kernel, filesystem corruption, a
	// stray hand-edited file — must read as a miss, not get served. The
	// bad entry is evicted so the recompute's Put can land a clean one.
	if !json.Valid(v) {
		os.Remove(s.path(key))
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.putMemLocked(key, v)
	s.stats.Hits++
	s.stats.DiskHits++
	s.mu.Unlock()
	return v, true
}

// GetAlias answers a repeated request body by its bytes: d is the digest
// KeyOf renders for the body as it arrived. When d was attached (Alias) to
// an entry the memory tier still holds, it returns the entry's key, as the
// one-element value of an X-Cache-Key header, and its value, counting and
// touching what Get(key) would; anything else is !ok. Both slices are the
// entry's own; callers must not mutate them.
func (s *Store) GetAlias(d Digest) (key []string, val []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.alias[d]
	if !ok {
		return nil, nil, false
	}
	s.order.MoveToFront(el)
	s.stats.Hits++
	e := el.Value.(*memEntry)
	return e.keyHdr[:], e.val, true
}

// Alias attaches d, the digest of a body that went the full path and came
// out at key, to key's memory-tier entry (a no-op if that is gone). It dies
// with the entry, so the table is bounded and no body bytes are kept.
func (s *Store) Alias(d Digest, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.mem[key]
	if _, known := s.alias[d]; !ok || known {
		return
	}
	e := el.Value.(*memEntry)
	if len(e.aliases) == maxAliases {
		delete(s.alias, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, d)
	s.alias[d] = el
}

// Put stores a value under key in both tiers. The disk write is atomic
// (temp file + rename) so a crashed daemon never leaves a torn entry for
// a later process to replay.
func (s *Store) Put(key string, val []byte) error {
	if s.dir != "" {
		tmp, err := os.CreateTemp(s.dir, "put-*")
		if err != nil {
			return fmt.Errorf("cache: put: %w", err)
		}
		_, werr := tmp.Write(val)
		cerr := tmp.Close()
		if werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), s.path(key))
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("cache: put: %w", werr)
		}
	}
	s.mu.Lock()
	s.putMemLocked(key, val)
	s.mu.Unlock()
	return nil
}

// Do returns the value for key, computing it at most once across all
// concurrent callers: a cached value is returned immediately (Hit); the
// first uncached caller leads the computation (Miss); callers arriving
// while it runs wait for the same result (Shared). Successful values are
// cached, errors are not. The computation runs on its own context,
// cancelled only when every waiter has abandoned it, so one impatient
// client cannot kill a result others are waiting for.
func (s *Store) Do(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	if v, ok := s.Get(key); ok {
		return v, Hit, nil
	}
	s.mu.Lock()
	// Re-check under the lock: a flight may have completed between the
	// Get and here.
	if v, ok := s.getMemLocked(key); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.stats.Shared++
		s.mu.Unlock()
		return s.wait(ctx, key, f, Shared)
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.flights[key] = f
	s.stats.Misses++
	s.mu.Unlock()

	go func() {
		val, err := compute(fctx)
		if err == nil {
			err = s.Put(key, val)
		}
		s.mu.Lock()
		f.val, f.err = val, err
		if err != nil {
			s.stats.Errors++
		}
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return s.wait(ctx, key, f, Miss)
}

// wait blocks until the flight finishes or ctx is done, cancelling the
// computation when the last waiter leaves.
func (s *Store) wait(ctx context.Context, key string, f *flight, o Outcome) ([]byte, Outcome, error) {
	select {
	case <-f.done:
		return f.val, o, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		abandon := f.waiters == 0
		s.mu.Unlock()
		if abandon {
			f.cancel()
		}
		return nil, o, fmt.Errorf("cache: %s while computing %s: %w", o, key, ctx.Err())
	}
}

// InFlight reports the number of deduplicated computations currently
// running.
func (s *Store) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// Snapshot returns the current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = len(s.mem)
	return st
}

// path maps a key to its on-disk file. Keys are hex, so the name is
// filesystem-safe by construction.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// getMemLocked reads the LRU; s.mu must be held.
func (s *Store) getMemLocked(key string) ([]byte, bool) {
	el, ok := s.mem[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// putMemLocked inserts into the LRU, evicting the coldest entry past the
// bound; s.mu must be held. Evictions only drop the memory copy — the
// disk tier still holds the value.
func (s *Store) putMemLocked(key string, val []byte) {
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).val = val
		s.order.MoveToFront(el)
		return
	}
	s.mem[key] = s.order.PushFront(&memEntry{key: key, keyHdr: [1]string{key}, val: val})
	for len(s.mem) > s.maxMem {
		last := s.order.Remove(s.order.Back()).(*memEntry)
		delete(s.mem, last.key)
		for _, d := range last.aliases {
			delete(s.alias, d)
		}
	}
}
