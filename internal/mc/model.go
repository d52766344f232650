package mc

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/spin"
)

// The untimed protocol model. Each reachable state is a snapshot of:
//
//   - packet locations — queued at the source NIC, resident in the single
//     VC of some (router, input port), or delivered;
//   - per-router agent state: the initiator FSM role (internal/spin's
//     RoleOff/RoleDD collapse to Idle, RoleMove/RoleKillMove/
//     RoleFwdProgress map to MoveOut/KillOut/Armed) plus the latched loop
//     (loopPort, initOut, loopPath), and the follower state (srcID + a
//     bitmask of frozen input ports);
//   - the in-flight special messages (probe / move / kill_move), each at
//     a (router, input port) position with its remaining path.
//
// Timers become nondeterminism: every counter expiry of the simulator is
// an always-enabled action here (Timeout, MoveTimeout, KillTimeout,
// Trigger), and SM contention drops become the DropSM action. The model
// therefore explores a superset of the timed simulator's interleavings —
// sound for safety checking, and the liveness property (delivery is
// reachable from every state) is existential, so extra interleavings can
// only add proof obligations, never hide one.
//
// The protocol's decisions are internal/spin's. Each SM hop and spin
// trigger builds the one-VC port view its rules take (portView) and acts
// on their verdict: spin.ForkProbe and ConfirmsLoop
// for a probe, FreezeOnMove for a move, AcceptKill and Releases for a
// kill_move, SpinOrAbort (the chain walk included) for a trigger. A rule
// changed in internal/spin changes the census.
//
// Deliberate abstractions, the model's own: one VC per port and one
// virtual network (VCsPerVNet=1, packet length = VC depth, so virtual
// cut-through holds one packet per VC), so probes never fork; timers are
// nondeterministic expiries and SM contention is DropSM; probe_move is
// elided (the model's initiator returns to detection after every spin,
// the DisableProbeMove ablation); the rotating-priority probe cull is
// subsumed by DropSM (instance loops are shorter than internal/spin's
// graceHops, so the simulator never applies it to them either); and an
// initiator re-emits an SM kind only once its previous one is gone,
// mirroring the timed guarantee that a bufferless SM either returns or is
// dropped within one loop traversal. MutSpinUnchecked is the model
// ignoring SpinOrAbort's abort verdict.

// Role is the model's initiator FSM state.
type Role uint8

// Roles.
const (
	RoleIdle Role = iota // RoleOff / RoleDD: detecting
	RoleProbing
	RoleMoveOut
	RoleKillOut
	RoleArmed // RoleFwdProgress: own VC frozen, awaiting the spin
	numRoles
)

func (r Role) String() string {
	switch r {
	case RoleIdle:
		return "idle"
	case RoleProbing:
		return "probing"
	case RoleMoveOut:
		return "move_out"
	case RoleKillOut:
		return "kill_out"
	case RoleArmed:
		return "armed"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// SM kinds.
const (
	SMProbe uint8 = iota
	SMMove
	SMKill
	numSMKinds
)

func smKindName(k uint8) string {
	switch k {
	case SMProbe:
		return "probe"
	case SMMove:
		return "move"
	case SMKill:
		return "kill_move"
	}
	return fmt.Sprintf("sm(%d)", k)
}

// Packet location kinds.
const (
	LocQueued uint8 = iota
	LocDelivered
	LocAt
)

// PktLoc is one packet's position.
type PktLoc struct {
	Kind   uint8
	Router uint8 // valid when Kind == LocAt
	Port   uint8
}

// RouterState is one router's agent snapshot.
type RouterState struct {
	Role     Role
	LoopPort int8 // latched loop re-entry port (MoveOut/KillOut/Armed)
	InitOut  int8 // latched first-hop output port
	LoopPath []uint8
	SrcID    int8  // follower: initiator holding this router's freezes, -1 none
	Frozen   uint8 // bitmask of frozen input ports
}

// SM is one in-flight special message, positioned at the router it is
// about to be handled by (arrival via InPort).
type SM struct {
	Kind      uint8
	Initiator uint8
	Router    uint8
	InPort    uint8
	FirstOut  int8 // probe: the port the initiator launched out of
	Path      []uint8
}

// State is one vertex of the protocol state graph.
type State struct {
	Pkts    []PktLoc
	Routers []RouterState
	SMs     []SM
}

// InitialState places every packet in its source queue with all agents
// idle.
func (in *Instance) InitialState() *State {
	s := &State{
		Pkts:    make([]PktLoc, len(in.Packets)),
		Routers: make([]RouterState, in.NumRouters()),
	}
	for i := range s.Routers {
		s.Routers[i] = RouterState{LoopPort: -1, InitOut: -1, SrcID: -1}
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		Pkts:    append([]PktLoc(nil), s.Pkts...),
		Routers: append([]RouterState(nil), s.Routers...),
	}
	for i := range c.Routers {
		if p := c.Routers[i].LoopPath; p != nil {
			c.Routers[i].LoopPath = append([]uint8(nil), p...)
		}
	}
	if len(s.SMs) > 0 {
		c.SMs = make([]SM, len(s.SMs))
		for i, m := range s.SMs {
			c.SMs[i] = m
			if m.Path != nil {
				c.SMs[i].Path = append([]uint8(nil), m.Path...)
			}
		}
	}
	return c
}

// Delivered counts delivered packets.
func (s *State) Delivered() int {
	n := 0
	for _, p := range s.Pkts {
		if p.Kind == LocDelivered {
			n++
		}
	}
	return n
}

// occupant reports the packet resident in (router, port), or -1.
func (s *State) occupant(r, p int) int {
	for i, l := range s.Pkts {
		if l.Kind == LocAt && int(l.Router) == r && int(l.Port) == p {
			return i
		}
	}
	return -1
}

// frozen reports whether (router, port)'s VC is frozen.
func (s *State) frozen(r, p int) bool { return s.Routers[r].Frozen&(1<<uint(p)) != 0 }

// blockedOn mirrors internal/spin's blockedDependency for the single-VC
// abstraction: the VC at (r, p) holds a packet that is not home and whose
// next-hop VC cannot accept it. It returns the requested output port.
func (in *Instance) blockedOn(s *State, r, p int) (int, bool) {
	pi := s.occupant(r, p)
	if pi < 0 {
		return 0, false
	}
	dst := in.Packets[pi].Dst
	if dst == r {
		return 0, false // WaitingToEject: ejection is stall-free
	}
	out := in.Route(r, dst)
	d, ok := in.Down(r, out)
	if !ok {
		return 0, false
	}
	if s.occupant(d.router, d.inPort) < 0 {
		return 0, false // space downstream: the packet can advance
	}
	return out, true
}

// portView is the model's one-VC view of (r, p) for internal/spin's
// rules.
func (in *Instance) portView(s *State, r, p int) [1]spin.PortVC {
	pi := s.occupant(r, p)
	out, ok := in.blockedOn(s, r, p)
	if !ok {
		out = -1
	}
	return [1]spin.PortVC{{Idle: pi < 0, Ejecting: pi >= 0 && in.Packets[pi].Dst == r, Frozen: s.frozen(r, p), Blocked: out}}
}

// nextHop is an SM's next output port at r, -1 when its path is used up
// or names no link.
func (in *Instance) nextHop(r int, path []uint8) int {
	if len(path) == 0 {
		return -1
	}
	if _, ok := in.Down(r, int(path[0])); !ok {
		return -1
	}
	return int(path[0])
}

// hasSM reports whether initiator already has an SM of kind in flight.
func (s *State) hasSM(initiator int, kind uint8) bool {
	for _, m := range s.SMs {
		if int(m.Initiator) == initiator && m.Kind == kind {
			return true
		}
	}
	return false
}

// removeSM deletes SM index i (order is re-canonicalized at encode time).
func (s *State) removeSM(i int) { s.SMs = append(s.SMs[:i], s.SMs[i+1:]...) }

// Succ is one outgoing transition.
type Succ struct {
	Action string // human-readable label, parseable by replay.go
	State  *State
	// Progress marks a delivery edge (the delivered count increased).
	Progress bool
	// Violation carries an invariant broken BY this transition (spin
	// mutual exclusion, duplicate occupancy under MutSpinUnchecked);
	// state-level invariants are checked separately via CheckInvariants.
	Violation string
}

// Successors enumerates every enabled transition of s. The slice and its
// states are freshly allocated.
func (in *Instance) Successors(s *State) []Succ {
	var out []Succ
	add := func(action string, n *State, progress bool, violation string) {
		out = append(out, Succ{Action: action, State: n, Progress: progress, Violation: violation})
	}

	// Inject: a queued packet enters the empty VC at its source's local
	// port (the NIC's single terminal port 0).
	for i, l := range s.Pkts {
		if l.Kind != LocQueued {
			continue
		}
		src := in.Packets[i].Src
		if s.occupant(src, 0) >= 0 {
			continue
		}
		n := s.Clone()
		n.Pkts[i] = PktLoc{Kind: LocAt, Router: uint8(src), Port: 0}
		add(fmt.Sprintf("inject p%d", i), n, false, "")
	}

	// Advance / Deliver: virtual cut-through moves a whole packet when
	// the downstream VC is empty; a packet at its destination router
	// ejects into the stall-free sink.
	for i, l := range s.Pkts {
		if l.Kind != LocAt {
			continue
		}
		r, p := int(l.Router), int(l.Port)
		if s.frozen(r, p) {
			continue // frozen for a pending spin: only the spin moves it
		}
		dst := in.Packets[i].Dst
		if dst == r {
			n := s.Clone()
			n.Pkts[i] = PktLoc{Kind: LocDelivered}
			add(fmt.Sprintf("deliver p%d", i), n, true, "")
			continue
		}
		outPort := in.Route(r, dst)
		d, ok := in.Down(r, outPort)
		if !ok {
			continue
		}
		if s.occupant(d.router, d.inPort) >= 0 || s.frozen(d.router, d.inPort) {
			continue
		}
		n := s.Clone()
		n.Pkts[i] = PktLoc{Kind: LocAt, Router: uint8(d.router), Port: uint8(d.inPort)}
		add(fmt.Sprintf("advance p%d to r%d", i, d.router), n, false, "")
	}

	// Timeout: an idle agent's detection counter expires on a blocked
	// link-port VC and launches a probe out the blocked dependency
	// (terminal ports are skipped, as in scanWatch: queued/ejecting
	// packets cannot be part of a cyclic buffer dependency).
	if in.Mutation != MutNoProbe {
		for r := range s.Routers {
			if s.Routers[r].Role != RoleIdle || s.hasSM(r, SMProbe) {
				continue
			}
			for p := 1; p < in.Radix(r); p++ {
				if s.frozen(r, p) {
					continue
				}
				outPort, ok := in.blockedOn(s, r, p)
				if !ok {
					continue
				}
				d, _ := in.Down(r, outPort)
				n := s.Clone()
				n.Routers[r].Role = RoleProbing
				n.SMs = append(n.SMs, SM{
					Kind: SMProbe, Initiator: uint8(r),
					Router: uint8(d.router), InPort: uint8(d.inPort),
					FirstOut: int8(outPort),
				})
				add(fmt.Sprintf("timeout r%d port %d", r, p), n, false, "")
			}
		}
	}

	// SM hops and drops.
	for i := range s.SMs {
		m := s.SMs[i]
		switch m.Kind {
		case SMProbe:
			add(fmt.Sprintf("probe_hop i%d at r%d", m.Initiator, m.Router), in.probeHop(s, i), false, "")
		case SMMove:
			add(fmt.Sprintf("move_hop i%d at r%d", m.Initiator, m.Router), in.moveHop(s, i), false, "")
		case SMKill:
			add(fmt.Sprintf("kill_hop i%d at r%d", m.Initiator, m.Router), in.killHop(s, i), false, "")
		}
		// DropSM: bufferless SMs lose link contention nondeterministically.
		n := s.Clone()
		n.removeSM(i)
		if m.Kind == SMProbe {
			// The initiator's detection counter simply re-arms.
			n.Routers[m.Initiator].Role = RoleIdle
		}
		add(fmt.Sprintf("drop_%s i%d", smKindName(m.Kind), m.Initiator), n, false, "")
	}

	// MoveTimeout / KillTimeout: the initiator's counter expires before
	// the SM returned (it was dropped, or is still circulating).
	for r := range s.Routers {
		switch s.Routers[r].Role {
		case RoleMoveOut:
			n := s.Clone()
			in.startKill(n, r)
			add(fmt.Sprintf("move_timeout r%d", r), n, false, "")
		case RoleKillOut:
			n := s.Clone()
			in.resetInitiator(n, r)
			add(fmt.Sprintf("kill_timeout r%d", r), n, false, "")
		case RoleArmed:
			// FwdProgress expiry (resetToDD): the spin never fired; the
			// initiator returns to detection. Its freezes stay behind
			// until their own spin counters fire or abort them.
			n := s.Clone()
			in.resetInitiator(n, r)
			add(fmt.Sprintf("arm_timeout r%d", r), n, false, "")
		}
	}

	// Trigger: a follower's spin counter expires on one frozen entry —
	// rotate its fully frozen dependency cycle one hop, or abort the
	// freeze (the simulator's spin_abort) when the chain is broken.
	for r := range s.Routers {
		for p := 0; p < in.Radix(r); p++ {
			if !s.frozen(r, p) {
				continue
			}
			n, viol := in.trigger(s, r, p)
			add(fmt.Sprintf("trigger r%d port %d", r, p), n, false, viol)
		}
	}

	return out
}

// probeHop processes SM i (a probe) at its current router: the
// initiator's returning probe confirms when spin.ConfirmsLoop holds (and
// no move of its is still out); otherwise spin.ForkProbe forwards it or
// drops it, and the initiator's counter re-arms.
func (in *Instance) probeHop(s *State, i int) *State {
	n := s.Clone()
	m := n.SMs[i]
	r, ip := int(m.Router), int(m.InPort)
	port := in.portView(n, r, ip)
	if int(m.Initiator) == r && n.Routers[r].Role == RoleProbing &&
		!n.hasSM(r, SMMove) && spin.ConfirmsLoop(port[:], int(m.FirstOut)) {
		// Confirmed: latch the loop and launch the move (Phase II).
		n.removeSM(i)
		rs := &n.Routers[r]
		rs.Role = RoleMoveOut
		rs.LoopPort = int8(ip)
		rs.InitOut = m.FirstOut
		rs.LoopPath = append([]uint8(nil), m.Path...)
		d, _ := in.Down(r, int(m.FirstOut))
		n.SMs = append(n.SMs, SM{
			Kind: SMMove, Initiator: m.Initiator,
			Router: uint8(d.router), InPort: uint8(d.inPort), FirstOut: -1,
			Path: append([]uint8(nil), m.Path...),
		})
		return n
	}
	var buf [1]int // a one-VC view is blocked on one port at most: it never forks
	if v, outs := spin.ForkProbe(port[:], spin.ProbeHop{PathLen: len(m.Path), MaxPath: in.MaxPath}, buf[:0]); v != spin.Forward {
		n.removeSM(i)
		n.Routers[m.Initiator].Role = RoleIdle
	} else {
		in.forward(n, i, outs[0], append(append([]uint8(nil), m.Path...), uint8(outs[0])))
	}
	return n
}

// forward moves SM i of n out of its router's port out, carrying path.
func (in *Instance) forward(n *State, i, out int, path []uint8) {
	d, _ := in.Down(int(n.SMs[i].Router), out)
	n.SMs[i].Router = uint8(d.router)
	n.SMs[i].InPort = uint8(d.inPort)
	n.SMs[i].Path = path
}

// moveHop processes SM i (a move) by spin.FreezeOnMove: freeze the
// candidate and forward, or, home, freeze the initiator's own candidate
// and arm, or cancel with a kill.
func (in *Instance) moveHop(s *State, i int) *State {
	n := s.Clone()
	m := n.SMs[i]
	r, ip := int(m.Router), int(m.InPort)
	rs := &n.Routers[r]
	h := spin.MoveHop{Home: int(m.Initiator) == r && len(m.Path) == 0, Latched: rs.Role == RoleMoveOut && ip == int(rs.LoopPort),
		Out: in.nextHop(r, m.Path), Holder: int(rs.SrcID), Sender: int(m.Initiator)}
	if h.Home {
		h.Out = int(rs.InitOut)
	}
	port := in.portView(n, r, ip)
	v, _ := spin.FreezeOnMove(port[:], h)
	if v != spin.Forward {
		n.removeSM(i)
	}
	switch v {
	case spin.Arm:
		rs.Frozen |= 1 << uint(ip)
		rs.SrcID = int8(r)
		rs.Role = RoleArmed
	case spin.Cancel:
		in.startKill(n, r)
	case spin.Forward:
		rs.Frozen |= 1 << uint(ip)
		rs.SrcID = int8(m.Initiator)
		in.forward(n, i, h.Out, append([]uint8(nil), m.Path[1:]...))
	}
	return n
}

// killHop processes SM i (a kill_move) by spin.AcceptKill: release the
// entry spin.Releases picks and forward, or drop.
func (in *Instance) killHop(s *State, i int) *State {
	n := s.Clone()
	m := n.SMs[i]
	r, ip := int(m.Router), int(m.InPort)
	rs := &n.Routers[r]
	out := in.nextHop(r, m.Path)
	v := spin.AcceptKill(int(m.Initiator) == r && len(m.Path) == 0, out, int(rs.SrcID), int(m.Initiator))
	if v != spin.Forward {
		n.removeSM(i)
		if v == spin.Home && rs.Role == RoleKillOut {
			in.resetInitiator(n, r)
		}
		return n
	}
	// The model's spin is atomic, so no entry is ever mid-spin.
	if pi := n.occupant(r, ip); n.frozen(r, ip) && pi >= 0 && spin.Releases(ip, out, ip, in.Route(r, in.Packets[pi].Dst), false) {
		rs.Frozen &^= 1 << uint(ip)
		if rs.Frozen == 0 {
			rs.SrcID = -1
		}
	}
	in.forward(n, i, out, append([]uint8(nil), m.Path[1:]...))
	return n
}

// startKill launches a kill_move along the latched loop (Phase II
// cancellation) and moves the initiator to KillOut. A stale kill of this
// initiator still in flight suppresses the emission — the timed system
// guarantees an SM either returns or is dropped before its initiator can
// cycle back to re-emission, so one in-flight SM per (initiator, kind)
// is the faithful bound and it keeps the state space finite.
func (in *Instance) startKill(n *State, r int) {
	rs := &n.Routers[r]
	rs.Role = RoleKillOut
	if n.hasSM(r, SMKill) {
		return
	}
	d, _ := in.Down(r, int(rs.InitOut))
	n.SMs = append(n.SMs, SM{
		Kind: SMKill, Initiator: uint8(r),
		Router: uint8(d.router), InPort: uint8(d.inPort), FirstOut: -1,
		Path: append([]uint8(nil), rs.LoopPath...),
	})
}

// resetInitiator returns an initiator to detection, clearing the latch.
func (in *Instance) resetInitiator(n *State, r int) {
	rs := &n.Routers[r]
	rs.Role = RoleIdle
	rs.LoopPort, rs.InitOut, rs.LoopPath = -1, -1, nil
}

// chainEntry is one frozen VC of a (candidate) spin cycle.
type chainEntry struct {
	router, inPort, out int
}

// trigger fires the spin counter of frozen entry (r, p) by
// spin.SpinOrAbort over the chain of frozen entries downstream of it: a
// closed cycle moves every packet one hop simultaneously (the synchronized
// spin) and its freezes clear; a broken chain aborts this entry's freeze
// instead. Under MutSpinUnchecked the model ignores the abort verdict and
// rotates the partial chain anyway — the deliberate safety defect.
func (in *Instance) trigger(s *State, r, p int) (*State, string) {
	n := s.Clone()
	var cycle []chainEntry
	cr, cp := r, p
	closed := spin.SpinOrAbort(int(n.Routers[r].SrcID), in.MaxPath, false, func() (int, bool) {
		pi := n.occupant(cr, cp)
		if pi < 0 {
			return -1, false
		}
		out := in.Route(cr, in.Packets[pi].Dst)
		if out < 0 {
			// The resident is home (reachable only after a mutation
			// corrupted occupancy): the chain is broken here.
			return -1, false
		}
		cycle = append(cycle, chainEntry{router: cr, inPort: cp, out: out})
		d, ok := in.Down(cr, out)
		if !ok || !n.frozen(d.router, d.inPort) {
			return -1, false
		}
		cr, cp = d.router, d.inPort
		return int(n.Routers[d.router].SrcID), d.router == r && d.inPort == p
	}) == spin.Spin
	if !closed && in.Mutation != MutSpinUnchecked {
		// spin_abort: release this entry; the dependency re-enters
		// detection.
		rs := &n.Routers[r]
		rs.Frozen &^= 1 << uint(p)
		if rs.Frozen == 0 {
			rs.SrcID = -1
			if rs.Role == RoleArmed {
				in.resetInitiator(n, r)
			}
		}
		return n, ""
	}
	src := n.Routers[r].SrcID
	// Spin mutual exclusion: a firing cycle must be wholly frozen for one
	// source. spin.SpinOrAbort enforces this hop by hop; the re-check is
	// the model's own audit of the shared rule.
	if closed {
		for _, e := range cycle {
			if n.Routers[e.router].SrcID != src || !n.frozen(e.router, e.inPort) {
				return n, fmt.Sprintf("spin fired across recoveries: cycle of i%d includes r%d held by i%d", src, e.router, n.Routers[e.router].SrcID)
			}
		}
	}
	// Rotate: every entry's packet moves to the downstream entry's VC.
	moved := make([]int, len(cycle))
	for i, e := range cycle {
		moved[i] = n.occupant(e.router, e.inPort)
	}
	var violation string
	for i, e := range cycle {
		d, _ := in.Down(e.router, e.out)
		if !closed || i == len(cycle)-1 {
			// Under the mutation a broken chain's last hop may land on an
			// occupied, unfrozen VC — the lost/duplicated packet defect
			// the occupancy invariant exists to catch.
			if occ := n.occupant(d.router, d.inPort); occ >= 0 && !slices.Contains(moved, occ) {
				violation = fmt.Sprintf("spin rotated p%d into the occupied VC (r%d port %d)", moved[i], d.router, d.inPort)
			}
		}
		n.Pkts[moved[i]] = PktLoc{Kind: LocAt, Router: uint8(d.router), Port: uint8(d.inPort)}
		rs := &n.Routers[e.router]
		rs.Frozen &^= 1 << uint(e.inPort)
		if rs.Frozen == 0 {
			rs.SrcID = -1
		}
	}
	if src >= 0 {
		if rs := &n.Routers[src]; rs.Role == RoleArmed && rs.Frozen == 0 {
			in.resetInitiator(n, int(src))
		}
	}
	return n, violation
}

// CheckInvariants audits state-level safety: exactly-once packet
// locations, frozen-VC sanity (the model's credit discipline — a frozen
// or occupied VC is exactly one packet's single buffer), follower/source
// consistency, and SM well-formedness.
func (in *Instance) CheckInvariants(s *State) []string {
	var violations []string
	seen := map[[2]uint8]int{}
	for i, l := range s.Pkts {
		switch l.Kind {
		case LocQueued, LocDelivered:
		case LocAt:
			r, p := int(l.Router), int(l.Port)
			if r >= in.NumRouters() || p >= in.Radix(r) {
				violations = append(violations, fmt.Sprintf("p%d at invalid VC r%d port %d", i, r, p))
				continue
			}
			key := [2]uint8{l.Router, l.Port}
			if j, dup := seen[key]; dup {
				violations = append(violations, fmt.Sprintf("p%d and p%d share the VC at r%d port %d", j, i, r, p))
			}
			seen[key] = i
		default:
			violations = append(violations, fmt.Sprintf("p%d has invalid location kind %d", i, l.Kind))
		}
	}
	for r := range s.Routers {
		rs := s.Routers[r]
		if (rs.SrcID >= 0) != (rs.Frozen != 0) {
			violations = append(violations, fmt.Sprintf("r%d follower state inconsistent: src i%d with frozen mask %#x", r, rs.SrcID, rs.Frozen))
		}
		for p := 0; p < in.Radix(r); p++ {
			if !s.frozen(r, p) {
				continue
			}
			pi := s.occupant(r, p)
			if pi < 0 {
				violations = append(violations, fmt.Sprintf("r%d port %d frozen but empty", r, p))
			} else if in.Packets[pi].Dst == r {
				violations = append(violations, fmt.Sprintf("r%d port %d froze ejecting packet p%d", r, p, pi))
			}
		}
		switch rs.Role {
		case RoleMoveOut, RoleKillOut, RoleArmed:
			if rs.LoopPort < 1 || rs.InitOut < 1 {
				violations = append(violations, fmt.Sprintf("r%d role %s without a latched loop", r, rs.Role))
			}
		}
	}
	for _, m := range s.SMs {
		if len(m.Path) > in.MaxPath {
			violations = append(violations, fmt.Sprintf("%s of i%d carries a path of %d > max %d", smKindName(m.Kind), m.Initiator, len(m.Path), in.MaxPath))
		}
	}
	return violations
}

// oracle mirrors sim.Network.FindDeadlock on the abstract state: a node
// per packet, live when its packet is not its VC's occupant (it is not in
// a VC, or a defect put it behind another), is ejecting, sits in a frozen
// VC (recovery is moving it) or routes to an empty VC; its one edge leads
// to the occupant it waits on. graph.Scratch.Live closes liveness over the
// edges. Each expandChunk keeps one, so a successor's check allocates
// nothing.
type oracle struct {
	lo, adj []int32
	live    []bool
	scc     graph.Scratch
}

// deadlocked reports whether any VC of s is deadlocked right now.
func (o *oracle) deadlocked(in *Instance, s *State) bool {
	o.lo, o.adj, o.live = o.lo[:0], o.adj[:0], o.live[:0]
	for i, l := range s.Pkts {
		o.lo = append(o.lo, int32(len(o.adj)))
		r, dst := int(l.Router), in.Packets[i].Dst
		live := l.Kind != LocAt || s.occupant(r, int(l.Port)) != i || s.frozen(r, int(l.Port)) || dst == r
		if d, ok := in.Down(r, in.Route(r, dst)); !live && ok {
			j := s.occupant(d.router, d.inPort)
			if live = j < 0; !live {
				o.adj = append(o.adj, int32(j))
			}
		}
		o.live = append(o.live, live)
	}
	o.lo = append(o.lo, int32(len(o.adj)))
	o.scc.Live(o.lo, o.adj, o.live)
	return slices.Contains(o.live, false)
}
