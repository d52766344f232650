package spin

import "slices"

// The recovery protocol's per-router decisions (Section IV) as pure
// functions over what a router sees of one input port. The agent calls
// them over sim.VCs and its peers' published views; internal/mc's model
// calls them over its abstract state, a one-VC view per port, so every
// census and counterexample is about the rules the simulator runs. What
// stays outside is each side's own: here the clock, counters, the
// rotating-priority cull and SM transport; in the model nondeterministic
// expiries, SM drops and its one-SM-per-(initiator, kind) bound.

// MaxProbePath is the loop-buffer depth, the probe path cap: 2 × routers.
// The paper sizes the loop buffer at N entries (log2(radix)·N bits);
// fully developed congestion can grow dependency cycles past N hops, and a
// cycle longer than the cap can never be confirmed or recovered. The cap
// also bounds probe lifetime, keeping SM link utilisation low.
func MaxProbePath(routers int) int { return 2 * routers }

// PortVC is what the rules see of one VC of an input port, within one
// virtual network.
type PortVC struct {
	Idle     bool // unallocated and empty
	Ejecting bool // its resident is at its destination router
	Frozen   bool // frozen for a pending spin
	// Blocked is the link output port the resident is head-blocked on
	// (routed, complete, no downstream VC granted, not ejecting), or -1.
	Blocked int
}

// Verdict is a rule's outcome: what to do, or why the message or freeze
// is dropped.
type Verdict uint8

// Verdicts. The ones after Spin are drops, each recorded under its
// Counter.
const (
	Forward Verdict = iota // probe: one copy on; move: freeze and forward; kill: release and forward
	Fork                   // probe: one copy out of each blocked port, marked forked
	Arm                    // move home: freeze the initiator's own VC and await the spin
	Home                   // kill home: the cancellation went round its loop
	Ignore                 // kill: its path is used up or names no link, dropped uncounted
	Spin                   // the entry's frozen cycle fires
	DropTooLong
	DropPriority
	DropProgress
	DropEject
	DropNoFork
	DropMisreturn
	DropMalformed
	DropConflict
	DropStale
	Cancel
	DropKill
	Abort
)

var counters = [...]string{
	DropTooLong:   "probe_drops_toolong",
	DropPriority:  "probe_drops_priority",
	DropProgress:  "probe_drops_progress",
	DropEject:     "probe_drops_eject",
	DropNoFork:    "probe_drops_nofork",
	DropMisreturn: "move_drops_misreturn",
	DropMalformed: "move_drops_malformed",
	DropConflict:  "move_drops_conflict",
	DropStale:     "move_drops_stale",
	Cancel:        "move_cancel_local",
	DropKill:      "kill_drops",
	Abort:         "spin_aborts",
}

// Counter names the agent counter v is recorded under ("" for the
// actions and Ignore).
func (v Verdict) Counter() string { return counters[v] }

func (v Verdict) String() string {
	if c := v.Counter(); c != "" {
		return c
	}
	return [...]string{"forward", "fork", "arm", "home", "ignore", "spin"}[v]
}

// ProbeHop is what the fork rule knows of a probe arriving at a router.
type ProbeHop struct {
	PathLen, MaxPath int  // hops recorded so far, and the loop-buffer depth
	Culled           bool // the rotating-priority rule drops it (simulator only)
	Forked           bool // a forked copy: it narrows instead of forking again
	NoFork           bool // Config.DisableProbeFork
}

// ForkProbe is Phase I's forking rule at the probe's input port. If every
// VC there is a blocked dependency (or waiting to eject), the probe goes
// on out of every unique port they are blocked on, appended to outs
// (passed empty); otherwise it drops: an idle, granted, unrouted or
// freshly-arrived VC means the port can still make progress, so no
// deadlock passes through it. Forked copies do not fork again: one level
// of secondary exploration traces dependent cycles (the paper's
// requirement) without letting the fork tree grow geometrically.
func ForkProbe(port []PortVC, h ProbeHop, outs []int) (Verdict, []int) {
	switch {
	case h.PathLen >= h.MaxPath:
		return DropTooLong, outs
	case h.Culled:
		return DropPriority, outs
	}
	for _, vc := range port {
		switch {
		case vc.Idle, !vc.Ejecting && vc.Blocked < 0:
			return DropProgress, outs[:0]
		case vc.Ejecting, slices.Contains(outs, vc.Blocked):
		default:
			outs = append(outs, vc.Blocked)
		}
	}
	switch {
	case len(outs) == 0:
		return DropEject, outs
	case len(outs) == 1:
		return Forward, outs
	case h.NoFork:
		return DropNoFork, outs[:0]
	case h.Forked:
		return Forward, outs[:1]
	}
	return Fork, outs
}

// FreezeCandidate picks the VC of port a move freezes: the first not yet
// frozen whose resident is head-blocked on out, or -1.
func FreezeCandidate(port []PortVC, out int) int {
	return slices.IndexFunc(port, func(vc PortVC) bool { return !vc.Frozen && vc.Blocked == out })
}

// ConfirmsLoop is the initiator's test for its own probe back at port:
// the probe closes a dependency cycle if a freeze candidate there is
// blocked on firstOut, the port the probe was launched from. It need not
// be the latest probe: loops longer than tDD return after the counter
// re-armed, and their path is still a live cycle while the local
// dependency holds.
func ConfirmsLoop(port []PortVC, firstOut int) bool { return FreezeCandidate(port, firstOut) >= 0 }

// MoveHop is what the freeze rule knows of a move (or probe_move)
// arriving at a router.
type MoveHop struct {
	// Home: back at its initiator with its path used up. Latched: the
	// initiator awaits exactly this return, on this port.
	Home, Latched bool
	// Out is the port the frozen VC must be blocked on: the path's next
	// hop (-1 when the path is used up or names no link), or at Home the
	// initiator's own output port.
	Out int
	// Holder is the initiator whose recovery holds this router's freezes
	// (-1: none); Sender is the move's.
	Holder, Sender int
}

// FreezeOnMove is Phase II's freeze rule. On the way round, the move
// freezes the candidate blocked on its next hop and goes on, unless
// another recovery holds the router (Fig. 5a, Case II) or the dependency
// the probe saw is gone (the initiator will time out and kill_move the
// frozen prefix). Home, the initiator freezes its own candidate, or
// cancels the recovery when its dependency dissolved while the move
// circulated. Forward and Arm also return the port's VC to freeze.
func FreezeOnMove(port []PortVC, m MoveHop) (Verdict, int) {
	switch {
	case m.Home && !m.Latched:
		return DropMisreturn, -1
	case m.Home:
		if k := FreezeCandidate(port, m.Out); k >= 0 {
			return Arm, k
		}
		return Cancel, -1
	case m.Out < 0:
		return DropMalformed, -1
	case m.Holder >= 0 && m.Holder != m.Sender:
		return DropConflict, -1
	}
	if k := FreezeCandidate(port, m.Out); k >= 0 {
		return Forward, k
	}
	return DropStale, -1
}

// AcceptKill is Phase II's cancellation rule for a kill_move whose next
// hop is next (-1 as for MoveHop.Out): a router frozen by the kill's own
// initiator releases the entry Releases picks and forwards it; one held by
// a different, still-valid recovery (or none) drops it.
func AcceptKill(home bool, next, holder, sender int) Verdict {
	switch {
	case home:
		return Home
	case next < 0:
		return Ignore
	case holder != sender:
		return DropKill
	}
	return Forward
}

// Releases reports whether a kill_move that arrived at inPort bound for
// out releases the entry frozen at port toward entryOut: the entry must
// match exactly, and one whose spin is already under way is left to
// finish.
func Releases(inPort, out, port, entryOut int, spinning bool) bool {
	return port == inPort && entryOut == out && !spinning
}

// SpinOrAbort is the spin-cycle rule for one frozen entry of recovery
// src. It spins only if it shares no port with an entry already spinning
// out of its router (the crossbar moves one flit per port per cycle;
// closed cycles cannot share ports, so this never splits a fired cycle)
// and its frozen chain closes: walked downstream from the entry, one hop
// per next call, every VC reached is frozen for src and the walk is back
// at the entry within maxHops hops. next reports the initiator holding
// the VC the hop lands on (-1 where the hop breaks or the VC is not
// frozen) and whether it is the entry. A broken chain (a kill_move dropped
// mid-path leaves a frozen suffix) aborts: an upstream router would push
// flits into a buffer nobody drains. Every member of a loop walks the
// same snapshot, so the whole loop fires or none of it does.
func SpinOrAbort(src, maxHops int, clash bool, next func() (holder int, back bool)) Verdict {
	if clash {
		return Abort
	}
	for hop := 0; hop <= maxHops; hop++ {
		holder, back := next()
		if holder < 0 || holder != src {
			return Abort
		}
		if back {
			return Spin
		}
	}
	return Abort
}
