package spin

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Role is the initiator-side FSM state of the paper's seven-state counter
// FSM (Fig. 4a). The follower side (S_Frozen) is orthogonal data — a
// router can simultaneously be the initiator of one recovery and a frozen
// follower of another (the dual-role race of Fig. 5a, Case II) — so the
// agent keeps follower state (is_deadlock, source id, frozen VCs)
// alongside the role.
type Role uint8

// FSM roles.
const (
	RoleOff Role = iota
	RoleDD
	RoleMove
	RoleFwdProgress
	RoleProbeMove
	RoleKillMove
)

func (r Role) String() string {
	switch r {
	case RoleOff:
		return "off"
	case RoleDD:
		return "dd"
	case RoleMove:
		return "move"
	case RoleFwdProgress:
		return "fwd_progress"
	case RoleProbeMove:
		return "probe_move"
	case RoleKillMove:
		return "kill_move"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// frozenEntry records one VC frozen for a pending spin and the output
// port its resident will take.
type frozenEntry struct {
	vc  *sim.VC
	out int
}

// Agent is the per-router SPIN agent.
type Agent struct {
	sim.BaseAgent
	s  *Scheme
	r  *sim.Router
	id int

	role   Role
	expire int64 // absolute counter-expiry cycle

	// Detection pointer (round-robin over blocked link-port VCs).
	watchPort, watchVC int
	watchPkt           uint64

	// Confirmed-recovery bookkeeping (initiator).
	loopPort  int // input port where the latched loop re-enters us
	loopVNet  int // virtual network the latched loop lives in
	initOut   int // output port of our own dependency in the loop
	loopPath  []uint8
	loopLen   int64
	spinCycle int64

	// failures counts cancelled recoveries (kill_move rounds); it feeds
	// the retry jitter so that two initiators of the same loop whose moves
	// keep colliding de-correlate instead of racing forever.
	failures int64
	// backoff doubles the detection interval after every fruitless probe
	// (up to 8×tDD) and resets on progress or a confirmed recovery. The
	// first probe of a fresh jam still fires at tDD, but sustained
	// congestion stops feeding probes onto the links — this is what keeps
	// SM link utilisation negligible at saturation (Fig. 8b).
	backoff int64

	// Follower state. srcID is the initiator whose recovery holds this
	// router's freezes, -1 for none: the paper's is_deadlock is srcID >= 0.
	srcID       int
	followSpin  int64
	frozen      []frozenEntry
	spinStarted bool

	// classTrue records, at probe-confirmation time, whether the oracle
	// agreed a real deadlock existed (false-positive accounting).
	classTrue bool

	// tagSeq feeds the per-agent SM tag stream (tracing only). Tags are
	// router-salted so they stay globally unique without any shared
	// counter across agents.
	tagSeq uint64

	// view is the follower state snapshot other routers' agents read
	// during the engine's phase 2 (see PublishView).
	view agentView
}

// agentView is the cross-router-visible follower state, frozen at the end
// of the engine's delivery phase. triggerSpin's chain walks read peers
// through it, so every agent of a loop evaluates the same state no
// matter at which point of phase 2 it runs — the all-or-none spin
// property.
type agentView struct {
	srcID  int
	frozen []frozenEntry
}

func newAgent(s *Scheme, r *sim.Router) *Agent {
	return &Agent{s: s, r: r, id: r.ID, srcID: -1, initOut: -1, view: agentView{srcID: -1}}
}

// recycle rewrites a, left on its router by the network's last run, as
// newAgent would build it for s. It is a literal naming only what survives
// (the router and the buffers' capacity), so a field added later starts the
// run zeroed without being listed here.
func (a *Agent) recycle(s *Scheme) {
	*a = Agent{s: s, r: a.r, id: a.id, srcID: -1, initOut: -1,
		loopPath: a.loopPath[:0], frozen: a.frozen[:0], view: agentView{srcID: -1, frozen: a.view.frozen[:0]}}
}

// Role reports the initiator-side FSM role.
func (a *Agent) Role() Role { return a.role }

// State reports the paper-level FSM state name, folding the follower
// freeze in: a router frozen by another initiator reports "frozen".
func (a *Agent) State() string {
	if a.srcID >= 0 && a.srcID != a.id && a.role != RoleMove && a.role != RoleKillMove {
		return "frozen"
	}
	return a.role.String()
}

func (a *Agent) count(name string, d int64) { a.r.Stats().Count(name, d) }

// nextTag returns a globally unique SM tag from the agent's own stream.
func (a *Agent) nextTag() uint64 {
	a.tagSeq++
	return a.tagSeq*uint64(a.r.Net().NumRouters()) + uint64(a.id)
}

// PublishView implements sim.Agent: copy the follower state peers
// read into the immutable-through-phase-2 snapshot. Idle agents with an
// already-empty view return without touching anything.
func (a *Agent) PublishView() {
	if a.srcID < 0 && a.view.srcID < 0 {
		return
	}
	a.view.srcID = a.srcID
	a.view.frozen = append(a.view.frozen[:0], a.frozen...)
}

// blockedDependency reports the link output port v's resident packet is
// head-blocked on, if v represents a live deadlock dependency: non-empty,
// routed, no downstream VC granted, not ejecting.
func blockedDependency(v *sim.VC) (int, bool) {
	if v.Len() == 0 || v.WaitingToEject() || v.Granted() >= 0 || !v.ResidentComplete() {
		return 0, false
	}
	reqs := v.Requests()
	if len(reqs) == 0 {
		return 0, false
	}
	return reqs[0].Port, true
}

// scanWatch finds the next non-empty, non-ejecting link-port VC starting
// after position (port, idx), wrapping around. Terminal ports are skipped:
// packets waiting to inject or eject cannot be part of a cyclic buffer
// dependency.
func (a *Agent) scanWatch(port, idx int) (int, int, bool) {
	r := a.r
	vcs := r.VCsPerPort()
	// Link-port VCs are the router's flat slots [lo, hi). The round-robin
	// order is start+1, ..., hi-1, lo, ..., start: two runs of the
	// occupied-VC bitset.
	lo, hi := r.LocalPorts()*vcs, r.Radix()*vcs
	start := lo
	if port >= r.LocalPorts() {
		start = port*vcs + idx
	}
	for _, run := range [2][2]int{{start + 1, hi}, {lo, start + 1}} {
		for slot := r.FirstOccupied(run[0], run[1]); slot >= 0; slot = r.FirstOccupied(slot+1, run[1]) {
			if v := r.VCAt(slot); !v.WaitingToEject() && !v.Frozen() {
				return v.Port(), v.Index(), true
			}
		}
	}
	return 0, 0, false
}

// Quiescent implements sim.Agent: with the initiator FSM off and no
// follower freeze pending, Tick is a no-op unless the router holds
// blocked flits — and routers holding flits are always stepped. The
// engine uses this to skip idle routers' agent phase entirely.
func (a *Agent) Quiescent() bool { return a.role == RoleOff && a.srcID < 0 }

// Tick implements sim.Agent.
func (a *Agent) Tick() {
	now := a.r.Now()
	a.tickFollower(now)
	switch a.role {
	case RoleOff:
		if a.s.cfg.DisableProbe {
			break // detection disabled: the initiator FSM stays off
		}
		if p, k, ok := a.scanWatch(0, -1); ok {
			a.pointAt(p, k, now)
			a.role = RoleDD
		}
	case RoleDD:
		a.tickDD(now)
	case RoleMove, RoleProbeMove:
		if now >= a.expire {
			a.startKill(now)
		}
	case RoleKillMove:
		if now >= a.expire {
			a.resetToDD(now)
		}
	case RoleFwdProgress:
		if now >= a.expire {
			a.afterSpin(now)
		}
	}
}

// pointAt aims the detection counter at (port, idx) and restarts it. A
// small deterministic per-router jitter staggers detection so that fully
// symmetric deadlock rings (every counter armed the same cycle) do not
// confirm simultaneously and race their moves forever.
func (a *Agent) pointAt(port, idx int, now int64) {
	a.watchPort, a.watchVC = port, idx
	v := a.r.VC(port, idx)
	if p := v.FrontPacket(); p != nil {
		a.watchPkt = p.ID
	} else {
		a.watchPkt = 0
	}
	jitter := (int64(a.id)*7 + a.failures*a.failures*11) % a.jitterSpan()
	a.expire = now + a.s.cfg.TDD<<a.backoff + jitter
}

// jitterSpan bounds the detection jitter well below tDD.
func (a *Agent) jitterSpan() int64 {
	span := a.s.cfg.TDD / 2
	if span < 4 {
		span = 4
	}
	if span > 64 {
		span = 64
	}
	return span
}

// tickDD advances the detection pointer on progress and emits a probe on
// expiry (Phase I).
func (a *Agent) tickDD(now int64) {
	v := a.r.VC(a.watchPort, a.watchVC)
	blocked := false
	if p := v.FrontPacket(); p != nil && p.ID == a.watchPkt && !v.Frozen() {
		if _, ok := blockedDependency(v); ok {
			blocked = true
		}
	}
	if !blocked {
		// The watched packet made progress (or the VC drained / is mid
		// recovery): advance round-robin and re-arm the backoff.
		a.backoff = 0
		if p, k, ok := a.scanWatch(a.watchPort, a.watchVC); ok {
			a.pointAt(p, k, now)
		} else {
			a.role = RoleOff
			a.expire = 0
		}
		return
	}
	if now < a.expire {
		return
	}
	// Counter expired on a blocked packet: send one probe out the watched
	// dependency's requested port (the paper's rule — one counter, one
	// probe per expiry, keeping SM link load negligible). The pointer then
	// advances round-robin so every blocked VC gets probed in turn: a
	// blocked VC can be a victim hanging off a cycle (a "rho"-shaped
	// dependency) whose probe orbits without returning, and only probes
	// launched from VCs inside a cycle ever come back.
	out, _ := blockedDependency(v)
	probe := a.r.NewSM()
	probe.Kind = sim.SMProbe
	probe.Sender = a.id
	probe.VNet = uint8(v.VNet())
	probe.FirstOut = uint8(out)
	probe.HopCycles = int64(a.r.LinkLatency(out))
	probe.Tag = a.nextTag()
	a.r.SendSM(out, probe)
	a.count("probes_sent", 1)
	if a.backoff < 3 {
		a.backoff++
	}
	if p, k, ok := a.scanWatch(a.watchPort, a.watchVC); ok {
		a.pointAt(p, k, now)
	} else {
		a.expire = now + a.s.cfg.TDD<<a.backoff
	}
}

// resetToDD returns the initiator FSM to detection.
func (a *Agent) resetToDD(now int64) {
	a.loopPath = nil
	a.loopLen = 0
	a.spinCycle = 0
	a.initOut = -1
	if p, k, ok := a.scanWatch(a.watchPort, a.watchVC); ok {
		a.pointAt(p, k, now)
		a.role = RoleDD
	} else {
		a.role = RoleOff
		a.expire = 0
	}
}

// startKill launches a kill_move along the latched loop to unfreeze the
// routers a failed move/probe_move reached (Phase II cancellation).
func (a *Agent) startKill(now int64) {
	a.role = RoleKillMove
	a.expire = now + a.loopLen
	a.failures++
	if a.failures > 1<<20 {
		a.failures = 0
	}
	a.count("kill_moves_sent", 1)
	kill := a.r.NewSM()
	kill.Kind = sim.SMKillMove
	kill.Sender = a.id
	kill.Path = append(kill.Path[:0], a.loopPath...)
	kill.Tag = a.nextTag()
	a.r.SendSM(a.initOut, kill)
}

// afterSpin runs when the initiator's spin round has globally completed:
// either re-probe the latched loop with a probe_move (multi-spin
// optimisation) or fall back to fresh detection.
func (a *Agent) afterSpin(now int64) {
	if !a.s.cfg.DisableProbeMove {
		if a.localDependency() {
			a.role = RoleProbeMove
			a.spinCycle = now + 2*a.loopLen
			a.expire = now + a.loopLen
			a.count("probe_moves_sent", 1)
			pm := a.r.NewSM()
			pm.Kind = sim.SMProbeMove
			pm.Sender = a.id
			pm.VNet = uint8(a.loopVNet)
			pm.Path = append(pm.Path[:0], a.loopPath...)
			pm.SpinCycle = a.spinCycle
			pm.LoopLen = a.loopLen
			pm.Tag = a.nextTag()
			a.r.SendSM(a.initOut, pm)
			return
		}
	}
	a.resetToDD(now)
}

// localDependency reports whether the loop's local input port (within the
// loop's vnet) still holds a freeze candidate blocked on initOut.
func (a *Agent) localDependency() bool {
	var buf [sim.MaxVCsPerVNet]PortVC
	return FreezeCandidate(a.portView(&buf, a.loopPort, a.loopVNet), a.initOut) >= 0
}

// portView fills buf with the rules' view of inPort's VCs in vnet.
func (a *Agent) portView(buf *[sim.MaxVCsPerVNet]PortVC, inPort, vnet int) []PortVC {
	port := buf[:a.r.Net().Config().VCsPerVNet]
	for k := range port {
		v := a.vcOf(inPort, vnet, k)
		out, ok := blockedDependency(v)
		if !ok {
			out = -1
		}
		port[k] = PortVC{Idle: v.Idle(), Ejecting: v.WaitingToEject(), Frozen: v.Frozen(), Blocked: out}
	}
	return port
}

// vcOf is VC k of inPort's VCs in vnet.
func (a *Agent) vcOf(inPort, vnet, k int) *sim.VC {
	return a.r.VC(inPort, vnet*a.r.Net().Config().VCsPerVNet+k)
}

// tickFollower triggers pending spins and cleans up completed ones.
func (a *Agent) tickFollower(now int64) {
	if a.srcID < 0 {
		return
	}
	if !a.spinStarted && now >= a.followSpin {
		a.triggerSpin(now)
		return
	}
	if a.spinStarted {
		for _, e := range a.frozen {
			if e.vc.SpinInProgress() {
				return
			}
		}
		// All frozen packets fully departed: resume normal operation.
		a.frozen = a.frozen[:0]
		a.spinStarted = false
		a.srcID = -1
	}
}

// triggerSpin starts the synchronized movement for every frozen VC that
// SpinOrAbort lets spin. The chain walks read peers through their
// published views (state at the end of the delivery phase), so every agent
// of the loop evaluates the same snapshot regardless of tick order.
func (a *Agent) triggerSpin(now int64) {
	a.spinStarted = true
	kept := a.frozen[:0]
	for _, e := range a.frozen {
		// A pathological folded path could freeze two VCs sharing a port;
		// spin only one and release the other (it re-enters detection).
		clash := slices.ContainsFunc(kept, func(k frozenEntry) bool { return k.out == e.out || k.vc.Port() == e.vc.Port() })
		cur, at := a, e
		var land *sim.VC // the downstream frozen VC our spin flits land in
		v := SpinOrAbort(a.srcID, a.s.maxPath, clash, func() (int, bool) {
			peer, next, ok := cur.peerFrozen(at.out)
			if !ok {
				return -1, false
			}
			if land == nil {
				land = next.vc
			}
			cur, at = peer, next
			return peer.view.srcID, next.vc == e.vc
		})
		if v == Abort {
			a.r.UnfreezeVC(e.vc)
			a.count(v.Counter(), 1)
			continue
		}
		a.r.StartSpin(e.vc, e.out, land)
		kept = append(kept, e)
	}
	a.frozen = kept
	if len(a.frozen) == 0 {
		a.spinStarted = false
		a.srcID = -1
		return
	}
	if a.srcID == a.id {
		// One spin event per recovery round, counted at the initiator.
		a.r.Stats().Spins++
		a.count("spin_events", 1)
		if a.s.cfg.CountTruth {
			if a.classTrue {
				a.count("true_positive_spins", 1)
			} else {
				a.count("false_positive_spins", 1)
			}
		}
	}
}

// peerFrozen resolves where a spin out of port out lands: the downstream
// agent and the entry its published view holds frozen at the input port
// the link feeds.
func (a *Agent) peerFrozen(out int) (*Agent, frozenEntry, bool) {
	d, inPort, ok := a.r.Downstream(out)
	if !ok {
		return nil, frozenEntry{}, false
	}
	peer, ok := d.Agent().(*Agent)
	if !ok || peer.view.srcID < 0 {
		return nil, frozenEntry{}, false
	}
	for _, f := range peer.view.frozen {
		if f.vc.Port() == inPort {
			return peer, f, true
		}
	}
	return nil, frozenEntry{}, false
}

// classifyRecovery snapshots, at probe-confirmation time (before any
// freeze distorts the oracle's liveness view), whether the watched VC is
// part of a true deadlock. A recovery whose spins run without one is a
// false positive (Fig. 9).
func (a *Agent) classifyRecovery() {
	a.classTrue = false
	for _, d := range a.r.Net().FindDeadlock() {
		if d.Router == a.id && d.Port == a.loopPort {
			a.classTrue = true
			return
		}
	}
}
