package mc

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/runner"
)

// Options configure one Check run.
type Options struct {
	// Workers is the number of parallel expansion workers (0 = GOMAXPROCS).
	Workers int
	// Bound caps the BFS depth in levels; 0 exhausts the space.
	Bound int
	// MaxStates stops expansion once the store holds more states; the cut
	// happens at a level boundary so a capped census is still
	// deterministic. 0 = unlimited.
	MaxStates int
}

// maxViolations caps the violations carried in a result (the census still
// counts all of them).
const maxViolations = 64

// Census is the committed state-space summary — the golden data that
// makes model regressions byte-visible.
type Census struct {
	Instance            string `json:"instance"`
	Packets             int    `json:"packets"`
	Mutation            string `json:"mutation"`
	Bound               int    `json:"bound"`
	States              int    `json:"states"`
	Edges               int    `json:"edges"`
	Diameter            int    `json:"diameter"`
	Deadlocked          int    `json:"deadlocked"`
	MaxRecoveryDistance int    `json:"max_recovery_distance"`
	Truncated           bool   `json:"truncated"`
}

// Violation is one property failure with a counterexample trace (action
// labels from the initial state; replayable through internal/sim via
// TraceScenario). The trace follows first-writer parent pointers, so its
// exact path — unlike every census field — may vary across runs; it is
// always a valid path of the state graph.
type Violation struct {
	Kind    string   `json:"kind"` // "invariant" or "liveness"
	Message string   `json:"message"`
	Trace   []string `json:"trace"`
}

// Result is one Check run's outcome.
type Result struct {
	Census          Census      `json:"census"`
	Violations      []Violation `json:"violations"`
	TotalViolations int         `json:"total_violations"`
}

// Failed reports whether any property was violated.
func (r *Result) Failed() bool { return r.TotalViolations > 0 }

// state flags computed at insertion.
const (
	flagDelivered   uint8 = 1 << iota // all packets delivered
	flagDeadlocked                    // OracleDeadlocked holds
	flagAssumedGood                   // truncated frontier: liveness assumed
)

type stateRec struct {
	enc    string
	parent int32 // -1 at the root
	action string
	level  int32
	flags  uint8
}

const numShards = 64

type visitShard struct {
	mu  sync.Mutex
	ids map[string]int32
}

// store is the sharded visited set: encodings map to dense state ids.
// The shard index comes from the hash, membership from the full
// encoding. Lock order is shard → store.
type store struct {
	shards [numShards]visitShard
	mu     sync.Mutex
	states []stateRec
}

func newStore() *store {
	st := &store{}
	for i := range st.shards {
		st.shards[i].ids = make(map[string]int32)
	}
	return st
}

// lookupOrInsert returns the id for enc, inserting a fresh record when
// unseen. ok reports a fresh insert.
func (st *store) lookupOrInsert(enc []byte, parent int32, action string, level int32, flags uint8) (int32, bool) {
	sh := &st.shards[Hash(enc)%numShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, seen := sh.ids[string(enc)]; seen {
		return id, false
	}
	key := string(enc)
	st.mu.Lock()
	id := int32(len(st.states))
	st.states = append(st.states, stateRec{enc: key, parent: parent, action: action, level: level, flags: flags})
	st.mu.Unlock()
	sh.ids[key] = id
	return id, true
}

type edge struct{ from, to int32 }

type vioRec struct {
	kind    string
	state   int32
	action  string // transition violations: the offending action label
	message string
}

type frontierItem struct {
	id  int32
	enc string
}

type chunkOut struct {
	next  []frontierItem
	edges []edge
	vios  []vioRec
}

// Check explores the instance's reachable state space by level-
// synchronous parallel BFS and checks every property. The census fields
// are deterministic for fixed (instance, options); violation traces are
// valid paths but follow first-writer parent pointers.
func Check(ctx context.Context, in *Instance, opts Options) (*Result, error) {
	st := newStore()
	init := in.InitialState()
	st.lookupOrInsert(in.Encode(init), -1, "", 0, in.stateFlags(init))

	var vios []vioRec
	for _, msg := range in.CheckInvariants(init) {
		vios = append(vios, vioRec{kind: "invariant", state: 0, message: msg})
	}

	frontier := []frontierItem{{id: 0, enc: st.states[0].enc}}
	var edges []edge
	depth := int32(0) // level of the current frontier
	truncated := false
	for len(frontier) > 0 {
		if opts.Bound > 0 && int(depth) >= opts.Bound {
			truncated = true
			break
		}
		if opts.MaxStates > 0 && len(st.states) > opts.MaxStates {
			truncated = true
			break
		}
		// One runner batch per level: the chunks expand in parallel and
		// come back in chunk order, so next/edges/vios do not depend on
		// which worker finished first.
		const chunkSize = 256
		var jobs []runner.Job[chunkOut]
		for start := 0; start < len(frontier); start += chunkSize {
			chunk := frontier[start:min(start+chunkSize, len(frontier))]
			jobs = append(jobs, runner.Job[chunkOut]{
				Key: fmt.Sprintf("mc:%s:l%d:c%d", in.Name, depth, start/chunkSize),
				Run: func(context.Context, int64) (chunkOut, error) { return in.expandChunk(st, chunk, depth+1) },
			})
		}
		outs, err := runner.Run(ctx, runner.Options{Workers: opts.Workers}, jobs)
		if err != nil {
			return nil, err
		}
		frontier = nil
		for _, out := range outs {
			frontier = append(frontier, out.next...)
			edges = append(edges, out.edges...)
			vios = append(vios, out.vios...)
		}
		depth++
	}
	if truncated {
		// The boundary frontier is stored but unexpanded: liveness must
		// assume it recovers (the run proves nothing beyond the bound).
		for _, it := range frontier {
			st.states[it.id].flags |= flagAssumedGood
		}
	}

	// Liveness: reverse BFS from the good states (fully delivered, or
	// assumed good at the truncation boundary). dist[s] = steps to reach
	// full delivery; -1 = never, the liveness violation.
	n := len(st.states)
	preds := make([][]int32, n)
	for _, e := range edges {
		preds[e.to] = append(preds[e.to], e.from)
	}
	dist := make([]int32, n)
	buckets := [][]int32{nil}
	for i := range st.states {
		dist[i] = -1
		if st.states[i].flags&(flagDelivered|flagAssumedGood) != 0 {
			dist[i] = 0
			buckets[0] = append(buckets[0], int32(i))
		}
	}
	for d := 0; d < len(buckets); d++ {
		for _, id := range buckets[d] {
			for _, u := range preds[id] {
				if dist[u] == -1 {
					dist[u] = int32(d + 1)
					for len(buckets) <= d+1 {
						buckets = append(buckets, nil)
					}
					buckets[d+1] = append(buckets[d+1], u)
				}
			}
		}
	}
	var dead []int32
	deadlocked, maxRec := 0, 0
	for i := range st.states {
		if st.states[i].flags&flagDeadlocked != 0 {
			deadlocked++
			if d := dist[i]; d > int32(maxRec) {
				maxRec = int(d)
			}
		}
		if dist[i] == -1 {
			dead = append(dead, int32(i))
		}
	}
	// Report the shallowest dead states first, tie-broken on the
	// canonical encoding so the selection is deterministic.
	sort.Slice(dead, func(a, b int) bool {
		ra, rb := &st.states[dead[a]], &st.states[dead[b]]
		if ra.level != rb.level {
			return ra.level < rb.level
		}
		return ra.enc < rb.enc
	})
	totalVios := len(vios) + len(dead)
	for _, id := range dead[:min(len(dead), maxViolations)] {
		vios = append(vios, vioRec{kind: "liveness", state: id,
			message: fmt.Sprintf("state cannot reach full delivery (depth %d, %d/%d delivered)", st.states[id].level, in.deliveredOf(st, id), len(in.Packets))})
	}

	res := &Result{
		Census: Census{
			Instance:            in.Name,
			Packets:             len(in.Packets),
			Mutation:            in.Mutation.String(),
			Bound:               opts.Bound,
			States:              n,
			Edges:               len(edges),
			Diameter:            int(depth),
			Deadlocked:          deadlocked,
			MaxRecoveryDistance: maxRec,
			Truncated:           truncated,
		},
		TotalViolations: totalVios,
	}
	sort.Slice(vios, func(a, b int) bool {
		if vios[a].kind != vios[b].kind {
			return vios[a].kind < vios[b].kind
		}
		if vios[a].message != vios[b].message {
			return vios[a].message < vios[b].message
		}
		// State ids are first-writer, so they differ between runs at
		// Workers > 1; the encoding and the action label do not.
		if ea, eb := st.states[vios[a].state].enc, st.states[vios[b].state].enc; ea != eb {
			return ea < eb
		}
		return vios[a].action < vios[b].action
	})
	for _, v := range vios[:min(len(vios), maxViolations)] {
		trace := st.traceOf(v.state)
		if v.action != "" {
			trace = append(trace, v.action)
		}
		res.Violations = append(res.Violations, Violation{Kind: v.kind, Message: v.message, Trace: trace})
	}
	return res, nil
}

// deliveredOf decodes a stored state and counts its deliveries.
func (in *Instance) deliveredOf(st *store, id int32) int {
	s, err := in.Decode([]byte(st.states[id].enc))
	if err != nil {
		return -1
	}
	return s.Delivered()
}

// stateFlags computes the per-state classification stored at insert.
func (in *Instance) stateFlags(s *State) uint8 {
	var f uint8
	if s.Delivered() == len(in.Packets) {
		f |= flagDelivered
	}
	if in.OracleDeadlocked(s) {
		f |= flagDeadlocked
	}
	return f
}

// expandChunk decodes and expands one frontier chunk, inserting fresh
// successors at the given level and checking invariants on each.
func (in *Instance) expandChunk(st *store, chunk []frontierItem, level int32) (chunkOut, error) {
	var out chunkOut
	for _, it := range chunk {
		s, err := in.Decode([]byte(it.enc))
		if err != nil {
			return out, fmt.Errorf("mc: stored state %d corrupt: %w", it.id, err)
		}
		for _, sc := range in.Successors(s) {
			enc := in.Encode(sc.State)
			id, fresh := st.lookupOrInsert(enc, it.id, sc.Action, level, in.stateFlags(sc.State))
			out.edges = append(out.edges, edge{from: it.id, to: id})
			if sc.Violation != "" {
				out.vios = append(out.vios, vioRec{kind: "invariant", state: it.id, action: sc.Action, message: sc.Violation})
			}
			if fresh {
				out.next = append(out.next, frontierItem{id: id, enc: string(enc)})
				for _, msg := range in.CheckInvariants(sc.State) {
					out.vios = append(out.vios, vioRec{kind: "invariant", state: id, message: msg})
				}
			}
		}
	}
	return out, nil
}

// traceOf rebuilds the action path from the root to state id.
func (st *store) traceOf(id int32) []string {
	var rev []string
	for cur := id; cur > 0; cur = st.states[cur].parent {
		rev = append(rev, st.states[cur].action)
	}
	trace := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		trace = append(trace, rev[i])
	}
	return trace
}
