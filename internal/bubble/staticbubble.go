package bubble

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// StaticBubble models the Static Bubble deadlock-recovery scheme for
// meshes: VC 0 of every vnet is a reserved recovery buffer that carries no
// traffic in normal operation (this is the cost Fig. 7 charges the
// scheme). A per-router timeout detects blocked packets; a detected packet
// is granted entry into the recovery VC, through which it drains over the
// dimension-ordered (acyclic) path. Packets already in the recovery VC
// keep using it freely, so the drain can never deadlock. It runs with
// escape_vc routing (routing.EscapeVC): fully-adaptive minimal requests
// over the regular VCs plus the dimension-ordered recovery request on VC
// 0, which the agent vetoes until a timeout fires.
type StaticBubble struct {
	Mesh *topology.Mesh
	// TDD is the detection timeout in cycles (default 128).
	TDD int64

	net    *sim.Network
	agents []*sbAgent
}

// Name implements sim.Scheme.
func (s *StaticBubble) Name() string { return "static_bubble" }

// Attach implements sim.Scheme.
func (s *StaticBubble) Attach(n *sim.Network) {
	if s.TDD == 0 {
		s.TDD = 128
	}
	s.net, s.agents = n, make([]*sbAgent, 0, n.NumRouters())
	for i := 0; i < n.NumRouters(); i++ {
		r := n.Router(i)
		slots := r.Radix() * r.VCsPerPort()
		// An agent left on r by the network's last run is rewritten as a
		// literal naming only what survives: its timer tables, cleared, and
		// the capacity of its tracked list.
		a, ok := r.Agent().(*sbAgent)
		if ok && len(a.blockedSince) == slots {
			clear(a.blockedSince)
			clear(a.recovery)
			*a = sbAgent{scheme: s, r: r, blockedSince: a.blockedSince, recovery: a.recovery, tracked: a.tracked[:0]}
		} else {
			a = &sbAgent{scheme: s, r: r, blockedSince: make([]int64, slots), recovery: make([]uint64, slots)}
		}
		s.agents = append(s.agents, a)
		n.SetAgent(i, a)
	}
}

type sbAgent struct {
	sim.BaseAgent
	scheme *StaticBubble
	r      *sim.Router

	// Timers, indexed by the router's flat VC slot. blockedSince is the
	// cycle (plus one; zero is not blocked) the resident packet became
	// head-blocked; recovery is the id of the resident released into the
	// recovery buffer path. tracked lists the slots with a running timer.
	blockedSince []int64
	recovery     []uint64
	tracked      []int32
}

// headBlocked reports whether v's resident waits at a link port without a
// grant — the state the detection timeout measures.
func headBlocked(v *sim.VC) bool {
	return v.Len() > 0 && !v.WaitingToEject() && v.Granted() < 0
}

// Quiescent implements sim.Agent: with no timer running, Tick only
// acts on buffered flits, and routers holding flits are always stepped.
func (a *sbAgent) Quiescent() bool { return len(a.tracked) == 0 }

// Tick implements sim.Agent: advance the blocked timers.
func (a *sbAgent) Tick() {
	now := a.r.Now()
	// Timers whose resident left, was granted or reached its destination
	// stop; the walk below re-lists the ones still running.
	for _, slot := range a.tracked {
		if !headBlocked(a.r.VCAt(int(slot))) {
			a.blockedSince[slot], a.recovery[slot] = 0, 0
		}
	}
	a.tracked = a.tracked[:0]
	lo, hi := a.r.LocalPorts()*a.r.VCsPerPort(), len(a.blockedSince)
	for slot := a.r.FirstOccupied(lo, hi); slot >= 0; slot = a.r.FirstOccupied(slot+1, hi) {
		v := a.r.VCAt(slot)
		if !headBlocked(v) {
			continue
		}
		a.tracked = append(a.tracked, int32(slot))
		if since := a.blockedSince[slot]; since == 0 {
			a.blockedSince[slot] = now + 1
		} else if id := v.FrontPacket().ID; now+1-since >= a.scheme.TDD && a.recovery[slot] != id {
			a.recovery[slot] = id
			a.r.Stats().Count("static_bubble_recoveries", 1)
		}
	}
}

// FilterSend implements sim.Agent: VC 0 is the reserved recovery buffer.
// Entry is allowed only for packets already travelling in a recovery VC
// (the acyclic drain) or blocked packets released by the timeout.
func (a *sbAgent) FilterSend(vc *sim.VC, outPort int, dvc *sim.VC) bool {
	if dvc.Index()%a.r.Net().Config().VCsPerVNet != 0 {
		return true // regular VC: no restriction
	}
	// Recovery packets keep draining through recovery VCs.
	if vc.Index()%a.r.Net().Config().VCsPerVNet == 0 && vc.Port() >= a.r.LocalPorts() {
		return true
	}
	pk := vc.FrontPacket()
	return pk != nil && a.recovery[vc.Slot()] == pk.ID
}

// FilterInject implements sim.Agent: fresh packets may not claim the
// recovery buffer.
func (a *sbAgent) FilterInject(vc *sim.VC, _ *sim.Packet) bool {
	return vc.Index()%a.r.Net().Config().VCsPerVNet != 0
}
