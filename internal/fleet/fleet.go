// Package fleet turns a set of spind daemons into one horizontally
// scalable simulation service. It provides three cooperating pieces:
//
//   - membership: static -peers seeding plus a lightweight HTTP gossip
//     protocol (node ID, address, heartbeat, cache statistics) with
//     failure detection via missed-heartbeat suspicion, so every node
//     converges on the same view of who is alive;
//
//   - ownership: a consistent-hash ring with virtual nodes over the
//     cache's SHA-256 content-address keys, so every request has one
//     deterministic owner that every node agrees on;
//
//   - peer cache-fill: before simulating, a non-owner asks the key's
//     owner (then its ring successors) for the already-cached result
//     over GET /v1/cache/<key>. The cache is content-addressed, so a
//     remote hit is byte-identical to a local one. When the owner has
//     no cached value, the request is proxied to it (so the fleet runs
//     each simulation once, on its owner); when the owner is down, the
//     node computes locally and backfills the owner's successor ring.
//
// The package is transport-only glue: it never runs simulations itself
// and never interprets cached bytes beyond checking they are JSON. The
// serving subsystem (internal/serve) mounts the handlers and consults
// Owner/Fill/Proxy/Backfill inside its singleflight compute path, which
// is what keeps dedup intact across the hop: N concurrent identical
// requests on one node still cost at most one peer round-trip.
package fleet

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Cache is the slice of internal/cache.Store the fleet needs: raw bytes
// by content-address key. Get must not fabricate entries; Put must be
// atomic enough that a concurrent reader never sees a torn value.
type Cache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// CacheInfo is the cache-statistics summary gossiped alongside health,
// so /v1/fleet can show per-node cache population fleet-wide.
type CacheInfo struct {
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
}

// State classifies a member's health as derived from heartbeat ages.
type State string

// onRing reports whether a member in this state is eligible for
// ownership — and still worth gossiping to: a reachable suspect's reply
// is exactly what refutes the suspicion.
func (s State) onRing() bool { return s == StateAlive || s == StateSuspect }

// Member states. A member is Alive while its heartbeat keeps advancing,
// Suspect after suspectRounds intervals without progress, Dead after
// deadRounds, and Left when it announced a graceful shutdown. Alive and
// Suspect members stay on the ownership ring (suspicion is often
// transient and ring churn moves every key's owner); Dead and Left
// members are removed. Fill and Proxy only talk to Alive members, so a Suspect
// owner already routes callers to the compute-locally-and-backfill
// path before the ring reassigns its keys.
const (
	StateAlive   State = "alive"
	StateSuspect State = "suspect"
	StateDead    State = "dead"
	StateLeft    State = "left"
)

// Member is a point-in-time public view of one fleet node.
type Member struct {
	ID    string    `json:"id"`
	Addr  string    `json:"addr"`
	State State     `json:"state"`
	Self  bool      `json:"self,omitempty"`
	Cache CacheInfo `json:"cache"`
	// Version is the member's gossiped build identity ("version+commit"),
	// so /v1/fleet shows a mixed-version fleet mid-rollout at a glance.
	Version string `json:"version,omitempty"`
	// Heartbeat is the member's own monotonic counter; LastSeenMS is how
	// long ago (local clock, milliseconds) it last advanced.
	Heartbeat  uint64 `json:"heartbeat"`
	LastSeenMS int64  `json:"last_seen_ms"`
}

// Config assembles a Fleet.
type Config struct {
	// ID is this node's unique name (required; cmd/spind defaults it to
	// the advertise address).
	ID string
	// Advertise is the host:port other fleet members reach this node at
	// (required when Peers is non-empty or peers will dial in).
	Advertise string
	// Peers seeds membership with known addresses; gossip discovers the
	// rest. Empty means a fleet of one (everything stays local).
	Peers []string
	// Interval is the gossip period (default 1s). Failure detection is
	// derived from it: see suspectRounds and deadRounds.
	Interval time.Duration
	// Cache is the local content-addressed store served to peers over
	// GET /v1/cache/<key> and written by backfills (required).
	Cache Cache
	// CacheStats, when non-nil, feeds the gossiped per-node CacheInfo.
	CacheStats func() CacheInfo
	// ProxyTimeout bounds one proxied compute round-trip (default 3m; it
	// covers a full simulation on the owner, so it must exceed the
	// serving layer's per-request budget).
	ProxyTimeout time.Duration
	// Version, when set, is gossiped with membership so every node's
	// /v1/fleet view shows peer build identities.
	Version string
	// Log, when non-nil, receives membership transitions and gossip
	// errors as structured records.
	Log *slog.Logger
	// Client overrides the HTTP client used for every peer call (tests).
	Client *http.Client
}

// Fleet tuning: constants, not Config fields, until two deployments need
// different values.
const (
	// suspectRounds and deadRounds bound failure detection in gossip
	// intervals: a member whose heartbeat has not advanced for
	// suspectRounds intervals is suspect (no longer routed to), for
	// deadRounds dead (dropped from the ring).
	suspectRounds = 3
	deadRounds    = 10
	// fanout is how many peers each gossip round exchanges state with.
	fanout = 2
	// vnodes is the virtual-node count per member on the consistent-hash
	// ring; more means better balance, slower rebuilds.
	vnodes = 64
	// fillTimeout bounds one peer cache-fill GET; a fill is an
	// optimization, so it fails fast into the proxy/local path.
	fillTimeout = 2 * time.Second
)

// member is the internal membership record: the gossiped fields plus
// local failure-detection bookkeeping.
type member struct {
	wireMember
	lastSeen time.Time // local clock when Heartbeat last advanced
	state    State
}

// Fleet is the membership + ownership subsystem. Construct with New,
// start gossip with Start, stop with Close.
type Fleet struct {
	cfg     Config
	client  *http.Client
	metrics *metrics
	// now is the clock behind heartbeat ages (tests step it).
	now func() time.Time

	mu      sync.Mutex
	members map[string]*member // by ID; always contains self
	seeds   []string           // peer addresses not yet matched to an ID
	ring    *ring
	ready   bool
	started bool
	closed  bool

	stop chan struct{}
	done chan struct{}
	// bg counts in-flight backfill pushes; Close waits for them.
	bg sync.WaitGroup
}

// New validates cfg and builds the Fleet (gossip does not run until
// Start).
func New(cfg Config) (*Fleet, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: Config.ID is required")
	}
	if cfg.Cache == nil {
		return nil, fmt.Errorf("fleet: Config.Cache is required")
	}
	if len(cfg.Peers) > 0 && cfg.Advertise == "" {
		return nil, fmt.Errorf("fleet: Config.Advertise is required when peers are configured")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 3 * time.Minute
	}
	f := &Fleet{
		cfg:     cfg,
		client:  cfg.Client,
		now:     time.Now,
		members: make(map[string]*member),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.metrics = newMetrics(f)
	if f.client == nil {
		f.client = &http.Client{}
	}
	now := f.now()
	self := &member{
		wireMember: wireMember{
			ID:          cfg.ID,
			Addr:        cfg.Advertise,
			Incarnation: now.UnixNano(),
			Heartbeat:   1,
			Version:     cfg.Version,
		},
		lastSeen: now,
		state:    StateAlive,
	}
	f.members[cfg.ID] = self
	for _, p := range cfg.Peers {
		p = strings.TrimSpace(p)
		if p == "" || p == cfg.Advertise {
			continue
		}
		f.seeds = append(f.seeds, p)
	}
	f.rebuildRingLocked()
	return f, nil
}

// SelfID reports this node's ID.
func (f *Fleet) SelfID() string { return f.cfg.ID }

// Ready reports whether the first gossip round has completed (vacuously
// true for a fleet of one). Load balancers should not route to a node
// before this: it has not yet learned the ring and would compute keys
// its peers already cached.
func (f *Fleet) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ready || (len(f.seeds) == 0 && len(f.members) == 1)
}

// Start launches the gossip loop (idempotent).
func (f *Fleet) Start() {
	f.mu.Lock()
	run := !f.started && !f.closed
	f.started = true
	f.mu.Unlock()
	if run {
		go f.loop()
	}
}

// Close stops the gossip loop and waits for in-flight backfill pushes
// (each bounded by its own timeout). It does not announce departure;
// call Leave first for a graceful exit.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	started := f.started
	f.mu.Unlock()
	close(f.stop)
	if started {
		<-f.done
	}
	f.bg.Wait()
}

// Members returns the current membership view, self first then sorted
// by ID.
func (f *Fleet) Members() []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	out := make([]Member, 0, len(f.members))
	for _, m := range f.members {
		out = append(out, f.publicLocked(m, now))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// publicLocked converts an internal record to the public view; f.mu
// must be held.
func (f *Fleet) publicLocked(m *member, now time.Time) Member {
	return Member{
		ID:         m.ID,
		Addr:       m.Addr,
		State:      m.state,
		Self:       m.ID == f.cfg.ID,
		Cache:      m.Cache,
		Version:    m.Version,
		Heartbeat:  m.Heartbeat,
		LastSeenMS: now.Sub(m.lastSeen).Milliseconds(),
	}
}

// Owner reports the ring owner of a content-address key. ok is false
// only when the ring is empty (never: self is always on it).
func (f *Fleet) Owner(key string) (Member, bool) {
	ms := f.owners(key, 1)
	if len(ms) == 0 {
		return Member{}, false
	}
	return ms[0], true
}

// owners reports the first n distinct ring nodes for key (owner first,
// then successors), as public views.
func (f *Fleet) owners(key string, n int) []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := f.ring.owners(key, n)
	now := f.now()
	out := make([]Member, 0, len(ids))
	for _, id := range ids {
		if m := f.members[id]; m != nil {
			out = append(out, f.publicLocked(m, now))
		}
	}
	return out
}

// rebuildRingLocked reconstructs the consistent-hash ring from the
// members currently eligible for ownership (alive + suspect); f.mu must
// be held.
func (f *Fleet) rebuildRingLocked() {
	ids := make([]string, 0, len(f.members))
	for id, m := range f.members {
		if m.state.onRing() {
			ids = append(ids, id)
		}
	}
	f.ring = newRing(ids)
}

// logf writes one structured record to the configured logger, if any.
// Fleet messages are operational prose (membership transitions, peer
// call failures), so the formatted text is the record message and the
// subsystem rides along as an attribute.
func (f *Fleet) logf(format string, args ...interface{}) {
	if f.cfg.Log != nil {
		f.cfg.Log.Info(fmt.Sprintf("fleet: "+format, args...), slog.String("subsys", "fleet"))
	}
}
