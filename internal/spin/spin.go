// Package spin is the distributed, topology-agnostic implementation of
// the SPIN deadlock-freedom framework (Section IV of the paper).
//
// Every router carries one counter-driven agent. Detection uses a timeout
// (tDD) on a round-robin-watched blocked VC; a probe special message (SM)
// confirms the cyclic dependency and records its path; a move SM freezes
// one VC per router of the loop and announces the spin cycle
// (send + 2 × loop length); at the spin cycle all frozen routers push
// their frozen packets out simultaneously — the spin. A probe_move SM
// accelerates multi-spin deadlocks, and kill_move cancels recoveries whose
// dependency dissolved. All SMs share the data links at priority
// probe_move > move = kill_move > probe > flit, travel buffered-nowhere,
// and are dropped on contention, arbitrated by rotating router priorities
// with an epoch of 4·tDD cycles.
package spin

import (
	"cmp"

	"repro/internal/sim"
)

// Config parameterises the scheme.
type Config struct {
	// TDD is the deadlock-detection timeout in cycles, > 0. It has no
	// default here: the paper's value is spin.Config.Normalized's.
	TDD int64
	// EpochFactor scales the rotating-priority epoch: epoch = EpochFactor
	// × TDD (0 is the paper's 4).
	EpochFactor int64
	// DisableProbeMove turns off the multi-spin optimisation; the FSM then
	// falls back to fresh detection after every spin (ablation knob).
	DisableProbeMove bool
	// DisableProbeFork drops probes at input ports whose packets wait on
	// more than one output port instead of forking them. The paper argues
	// forking is required to trace inter-dependent cycles; this ablation
	// knob lets the claim be measured.
	DisableProbeFork bool
	// CountTruth enables oracle-backed false-positive accounting: each
	// confirmed recovery is checked against the global deadlock oracle.
	// Costs oracle runs per recovery; used by the Fig. 9 experiment. The
	// oracle scans live state network-wide from inside a Tick, so unlike
	// the agents themselves (own-router state plus published peer views)
	// the count depends on phase 2's ascending router order.
	CountTruth bool
	// DisableProbe turns off the detection/probe phase entirely: agents
	// never arm the deadlock-detection counter, so no probes, moves, or
	// spins ever happen and a true cyclic deadlock persists forever. It
	// exists for the model checker (internal/mc): its no_probe mutation
	// is a scenario's "mutation": "no_probe", which the facade's scheme
	// table maps to this knob, so a model counterexample can be replayed
	// through the simulator with the identical defect injected.
	DisableProbe bool
}

// graceHops is how many hops a probe travels before the rotating priority
// rule may drop it. The paper's literal reading drops probes from
// lower-priority senders at every hop: at most one confirmed recovery per
// loop, but recovery serialises behind the rotating priority and
// throughput collapses once congestion couples many loops. After a grace
// window, short loops (the common case) confirm in parallel from any
// initiator while long probe walks are still culled quickly, keeping SM
// link utilisation negligible.
const graceHops = 12

// Scheme implements sim.Scheme for SPIN.
type Scheme struct {
	cfg    Config
	net    *sim.Network
	agents []*Agent
	epoch  int64
	// maxPath is MaxProbePath of the network's router count.
	maxPath int
}

// New builds a SPIN scheme with cfg.
func New(cfg Config) *Scheme {
	if cfg.TDD <= 0 {
		panic("spin: Config.TDD must be > 0")
	}
	return &Scheme{cfg: cfg}
}

// Name implements sim.Scheme.
func (s *Scheme) Name() string { return "spin" }

// Attach implements sim.Scheme.
func (s *Scheme) Attach(n *sim.Network) {
	s.net = n
	s.epoch = cmp.Or(s.cfg.EpochFactor, 4) * s.cfg.TDD
	s.maxPath = MaxProbePath(n.NumRouters())
	s.agents = make([]*Agent, n.NumRouters())
	for i := 0; i < n.NumRouters(); i++ {
		r := n.Router(i)
		a, ok := r.Agent().(*Agent)
		if ok {
			a.recycle(s)
		} else {
			a = newAgent(s, r)
		}
		s.agents[i] = a
		n.SetAgent(i, a)
	}
}

// Agents exposes the per-router agents (tests and the walkthrough
// example inspect FSM state).
func (s *Scheme) Agents() []*Agent { return s.agents }

// Priority reports router r's dynamic priority at cycle now: priorities
// rotate round-robin every epoch so that every router eventually holds the
// highest priority long enough (≥ 3·tDD of its 4·tDD epoch) to detect a
// deadlock, emit a probe and get it back without contention drops.
func (s *Scheme) Priority(r int, now int64) int {
	n := int64(s.net.NumRouters())
	return int((int64(r) + now/s.epoch) % n)
}
