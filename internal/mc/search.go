package mc

import (
	"context"
	"fmt"
	"sort"

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
// TraceScenario).
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

// state flags, computed when expandChunk first meets a state.
const (
	flagDelivered   uint8 = 1 << iota // all packets delivered
	flagDeadlocked                    // the deadlock oracle holds
	flagAssumedGood                   // truncated frontier: liveness assumed
)

type stateRec struct {
	enc    string
	parent int32 // -1 at the root
	action string
	level  int32
	flags  uint8
}

// store is the visited set: encodings map to dense state ids. Only
// Check's serial merge writes it, between levels; expandChunk reads it
// with no lock while a level's batch runs, when nothing writes.
type store struct {
	ids    map[string]int32
	states []stateRec
}

// insert stores rec under the next id unless its encoding is already
// stored, and returns the encoding's id.
func (st *store) insert(rec stateRec) int32 {
	if id, seen := st.ids[rec.enc]; seen {
		return id
	}
	id := int32(len(st.states))
	st.ids[rec.enc] = id
	st.states = append(st.states, rec)
	return id
}

type edge struct{ from, to int32 }

type vioRec struct {
	kind    string
	state   int32
	action  string // transition violations: the offending action label
	message string
}

// chunkOut is one chunk's expansion. An edge's to and a vioRec's state
// are a stored id, or -1-k for the chunk's k-th new candidate.
type chunkOut struct {
	fresh []stateRec
	edges []edge
	vios  []vioRec
}

// Check explores the instance's reachable state space by level-
// synchronous parallel BFS and checks every property. The result — ids,
// parent pointers, traces and violation order included — is the same at
// every Workers count for fixed (instance, options).
func Check(ctx context.Context, in *Instance, opts Options) (*Result, error) {
	init := in.InitialState()
	st := &store{ids: make(map[string]int32)}
	st.insert(stateRec{enc: string(in.Encode(init)), parent: -1, flags: in.stateFlags(init, &oracle{})})

	var vios []vioRec
	for _, msg := range in.CheckInvariants(init) {
		vios = append(vios, vioRec{kind: "invariant", state: 0, message: msg})
	}

	// The frontier is the id range [lo, hi): the merge gives a level's new
	// states consecutive ids.
	lo, hi := int32(0), int32(1)
	var edges []edge
	depth := int32(0) // level of the current frontier
	truncated := false
	for lo < hi {
		if opts.Bound > 0 && int(depth) >= opts.Bound {
			truncated = true
			break
		}
		if opts.MaxStates > 0 && len(st.states) > opts.MaxStates {
			truncated = true
			break
		}
		// One runner batch per level: the chunks expand in parallel and
		// come back in chunk order, and the merge below stores their new
		// states in that order, so ids do not depend on which worker
		// finished first.
		const chunkSize = 256
		var jobs []runner.Job[chunkOut]
		for start := lo; start < hi; start += chunkSize {
			end := min(start+chunkSize, hi)
			jobs = append(jobs, runner.Job[chunkOut]{
				Key: fmt.Sprintf("mc:%s:l%d:c%d", in.Name, depth, (start-lo)/chunkSize),
				Run: func(context.Context, int64) (chunkOut, error) { return in.expandChunk(st, start, end, depth+1) },
			})
		}
		outs, err := runner.Run(ctx, runner.Options{Workers: opts.Workers}, jobs)
		if err != nil {
			return nil, err
		}
		lo = hi
		var ids []int32
		for _, out := range outs {
			// A candidate an earlier chunk of this level stored maps to
			// that chunk's id; its invariants were reported there.
			base := int32(len(st.states))
			ids = ids[:0]
			for _, rec := range out.fresh {
				ids = append(ids, st.insert(rec))
			}
			resolve := func(id int32) int32 {
				if id < 0 {
					return ids[-1-id]
				}
				return id
			}
			for _, e := range out.edges {
				edges = append(edges, edge{from: e.from, to: resolve(e.to)})
			}
			for _, v := range out.vios {
				if v.state < 0 && ids[-1-v.state] < base {
					continue
				}
				v.state = resolve(v.state)
				vios = append(vios, v)
			}
		}
		hi = int32(len(st.states))
		depth++
	}
	if truncated {
		// The boundary frontier is stored but unexpanded: liveness must
		// assume it recovers (the run proves nothing beyond the bound).
		for id := lo; id < hi; id++ {
			st.states[id].flags |= flagAssumedGood
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
		// Ties break on the state's encoding, then the action label.
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

// stateFlags computes the per-state classification stored with a state.
func (in *Instance) stateFlags(s *State, o *oracle) uint8 {
	var f uint8
	if s.Delivered() == len(in.Packets) {
		f |= flagDelivered
	}
	if o.deadlocked(in, s) {
		f |= flagDeadlocked
	}
	return f
}

// expandChunk decodes and expands the frontier states [lo, hi). Each
// successor is an edge; one no state holds yet becomes a candidate at the
// given level, once per chunk, and only candidates are classified and
// checked for invariants.
func (in *Instance) expandChunk(st *store, lo, hi, level int32) (chunkOut, error) {
	var out chunkOut
	var o oracle
	local := make(map[string]int32) // candidate encoding -> k
	for id := lo; id < hi; id++ {
		s, err := in.Decode([]byte(st.states[id].enc))
		if err != nil {
			return out, fmt.Errorf("mc: stored state %d corrupt: %w", id, err)
		}
		for _, sc := range in.Successors(s) {
			enc := in.Encode(sc.State)
			to, seen := st.ids[string(enc)]
			if !seen {
				k, dup := local[string(enc)]
				if !dup {
					k = int32(len(out.fresh))
					key := string(enc)
					local[key] = k
					out.fresh = append(out.fresh, stateRec{enc: key, parent: id, action: sc.Action, level: level, flags: in.stateFlags(sc.State, &o)})
					for _, msg := range in.CheckInvariants(sc.State) {
						out.vios = append(out.vios, vioRec{kind: "invariant", state: -1 - k, message: msg})
					}
				}
				to = -1 - k
			}
			out.edges = append(out.edges, edge{from: id, to: to})
			if sc.Violation != "" {
				out.vios = append(out.vios, vioRec{kind: "invariant", state: id, action: sc.Action, message: sc.Violation})
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
