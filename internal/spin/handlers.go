package spin

import "repro/internal/sim"

// HandleSM implements sim.Agent: dispatch arriving special messages.
func (a *Agent) HandleSM(sm *sim.SM, inPort int) {
	switch sm.Kind {
	case sim.SMProbe:
		a.handleProbe(sm, inPort)
	case sim.SMMove:
		a.handleMoveLike(sm, inPort, false)
	case sim.SMProbeMove:
		a.handleMoveLike(sm, inPort, true)
	case sim.SMKillMove:
		a.handleKill(sm, inPort)
	}
}

// handleProbe implements Phase I processing. The initiator's own latest
// probe returning on the watched port confirms the deadlock; every other
// probe is forked out of the unique ports the packets at its input port
// are head-blocked on, or dropped when that input port shows any sign of
// forward progress.
func (a *Agent) handleProbe(sm *sim.SM, inPort int) {
	now := a.r.Now()
	if sm.Sender == a.id {
		if a.role != RoleDD {
			// Already recovering (or idle): a returning copy of an older
			// probe is dropped; the FSM handles one recovery at a time.
			a.count("probe_drops_stale", 1)
			return
		}
		// The probe closes a dependency cycle if some packet at its
		// arrival port is head-blocked on the port the probe was launched
		// from. Acceptance does not require the probe to be the latest
		// one sent: loops longer than tDD return after the counter has
		// already re-armed, and their path is still a live cycle as long
		// as the local dependency holds.
		if v := a.freezeCandidate(inPort, int(sm.FirstOut), int(sm.VNet)); v != nil {
			a.confirmDeadlock(sm, inPort, now)
			return
		}
		// A mid-loop pass of our own live probe through a folded
		// (figure-8) dependency keeps travelling (Fig. 5b, Case II).
	}
	a.forkProbe(sm, inPort)
}

// confirmDeadlock latches the loop, measures its traversal time, and
// launches the move SM announcing the spin cycle (Phase II).
func (a *Agent) confirmDeadlock(sm *sim.SM, inPort int, now int64) {
	a.loopPort = inPort
	a.loopVNet = int(sm.VNet)
	a.initOut = int(sm.FirstOut)
	a.loopPath = append(a.loopPath[:0], sm.Path...)
	a.loopLen = sm.HopCycles
	if a.loopLen <= 0 {
		a.loopLen = 1
	}
	a.spinCycle = now + 2*a.loopLen
	a.backoff = 0
	a.role = RoleMove
	a.expire = now + a.loopLen
	a.count("recoveries", 1)
	if a.s.cfg.CountTruth {
		a.classifyRecovery()
	}
	mv := a.r.NewSM()
	mv.Kind = sim.SMMove
	mv.Sender = a.id
	mv.VNet = sm.VNet
	mv.Path = append(mv.Path[:0], a.loopPath...)
	mv.SpinCycle = a.spinCycle
	mv.LoopLen = a.loopLen
	mv.Tag = a.nextTag()
	a.r.SendSM(a.initOut, mv)
}

// forkProbe applies the forking rule: if every VC at the probe's input
// port is a blocked dependency (or waiting to eject), fork the probe out
// of every unique requested link port, appending the port id; otherwise
// drop it — an idle, granted, or freshly-arrived VC means the input port
// can still make progress, so no deadlock passes through it.
func (a *Agent) forkProbe(sm *sim.SM, inPort int) {
	if len(sm.Path) >= a.s.maxPath {
		a.count("probe_drops_toolong", 1)
		return
	}
	// Rotating-priority rule, for forked copies and past graceHops only: a
	// router drops probes from lower-priority senders. Inside the grace
	// window probes pass freely and priorities only arbitrate port
	// contention (PickSM): any member's returning probe confirms, and
	// near-simultaneous confirmations of the same loop are serialised by
	// the move source-id rule.
	if sm.Sender != a.id && (sm.Forked || len(sm.Path) >= graceHops) {
		now := a.r.Now()
		if a.s.Priority(a.id, now) > a.s.Priority(sm.Sender, now) {
			a.count("probe_drops_priority", 1)
			return
		}
	}
	// Only the probe's own virtual network participates: vnets are
	// independent buffer classes, so an idle or moving VC of another
	// class says nothing about this one's dependency cycle.
	var ports [32]int
	n := 0
	vcsPer := a.r.Net().Config().VCsPerVNet
	base := int(sm.VNet) * vcsPer
	for k := base; k < base+vcsPer; k++ {
		v := a.r.VC(inPort, k)
		if v.Idle() {
			a.count("probe_drops_progress", 1)
			return
		}
		if v.WaitingToEject() {
			continue
		}
		out, ok := blockedDependency(v)
		if !ok {
			// Granted, unrouted, or mid-flight: progress is possible.
			a.count("probe_drops_progress", 1)
			return
		}
		dup := false
		for i := 0; i < n; i++ {
			if ports[i] == out {
				dup = true
				break
			}
		}
		if !dup && n < len(ports) {
			ports[n] = out
			n++
		}
	}
	if n == 0 {
		a.count("probe_drops_eject", 1)
		return
	}
	if n > 1 && (a.s.cfg.DisableProbeFork || sm.Forked) {
		// Forked copies do not fork again: one level of secondary
		// exploration traces dependent cycles (the paper's requirement)
		// without letting the fork tree grow geometrically.
		if a.s.cfg.DisableProbeFork {
			a.count("probe_drops_nofork", 1)
			return
		}
		n = 1
	}
	for i := 0; i < n; i++ {
		c := a.r.CloneSM(sm)
		c.Path = append(c.Path, uint8(ports[i]))
		c.HopCycles += int64(a.r.LinkLatency(ports[i]))
		if n > 1 {
			c.Forked = true
		}
		a.r.SendSM(ports[i], c)
	}
	if n > 1 {
		a.count("probe_forks", int64(n-1))
	}
}

// handleMoveLike processes move and probe_move SMs: identical traversal
// semantics, differing only in which initiator role accepts the final
// return.
func (a *Agent) handleMoveLike(sm *sim.SM, inPort int, isProbeMove bool) {
	now := a.r.Now()
	if sm.Sender == a.id && len(sm.Path) == 0 {
		// Final return to the initiator.
		wantRole := RoleMove
		if isProbeMove {
			wantRole = RoleProbeMove
		}
		if a.role != wantRole || inPort != a.loopPort {
			a.count("move_drops_misreturn", 1)
			return
		}
		if v, ok := a.localDependency(); ok {
			a.r.FreezeVC(v)
			a.frozen = append(a.frozen, frozenEntry{vc: v, out: a.initOut})
			a.isDeadlock = true
			a.srcID = a.id
			a.followSpin = sm.SpinCycle
			a.spinStarted = false
			a.role = RoleFwdProgress
			// afterSpin fires once every packet of the loop has finished
			// its synchronized movement.
			a.expire = sm.SpinCycle + sim.MaxPktLen
			return
		}
		// Our own dependency dissolved while the move circulated: cancel
		// the recovery before anyone spins into our buffer.
		a.count("move_cancel_local", 1)
		a.startKill(now)
		return
	}
	if len(sm.Path) == 0 {
		a.count("move_drops_malformed", 1)
		return
	}
	out := int(sm.Path[0])
	if !a.r.HasOutLink(out) {
		a.count("move_drops_malformed", 1)
		return
	}
	if a.isDeadlock && a.srcID != sm.Sender {
		// Another recovery holds this router (Fig. 5a, Case II).
		a.count("move_drops_conflict", 1)
		return
	}
	v := a.freezeCandidate(inPort, out, int(sm.VNet))
	if v == nil {
		// The dependency the probe saw no longer exists here: drop; the
		// initiator will time out and kill_move the frozen prefix.
		a.count("move_drops_stale", 1)
		return
	}
	a.r.FreezeVC(v)
	a.frozen = append(a.frozen, frozenEntry{vc: v, out: out})
	a.isDeadlock = true
	a.srcID = sm.Sender
	a.followSpin = sm.SpinCycle
	a.spinStarted = false
	fwd := a.r.CloneSM(sm)
	fwd.Path = fwd.Path[1:]
	a.r.SendSM(out, fwd)
}

// freezeCandidate picks the VC to freeze: head-blocked at inPort wanting
// out within the recovery's virtual network, not already frozen.
func (a *Agent) freezeCandidate(inPort, out, vnet int) *sim.VC {
	vcsPer := a.r.Net().Config().VCsPerVNet
	base := vnet * vcsPer
	for k := base; k < base+vcsPer; k++ {
		v := a.r.VC(inPort, k)
		if v.Frozen() {
			continue
		}
		if o, ok := blockedDependency(v); ok && o == out {
			return v
		}
	}
	return nil
}

// handleKill processes kill_move: unfreeze the matching frozen VC and
// forward along the path; drop on source mismatch (the freeze belongs to
// a different, still-valid recovery).
func (a *Agent) handleKill(sm *sim.SM, inPort int) {
	now := a.r.Now()
	if sm.Sender == a.id && len(sm.Path) == 0 {
		if a.role == RoleKillMove {
			a.resetToDD(now)
		}
		return
	}
	if len(sm.Path) == 0 {
		return
	}
	out := int(sm.Path[0])
	if !a.r.HasOutLink(out) {
		return
	}
	if !a.isDeadlock || a.srcID != sm.Sender {
		a.count("kill_drops", 1)
		return
	}
	kept := a.frozen[:0]
	removed := false
	for _, e := range a.frozen {
		if !removed && e.vc.Port() == inPort && e.out == out && !e.vc.SpinInProgress() {
			a.r.UnfreezeVC(e.vc)
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	a.frozen = kept
	if len(a.frozen) == 0 {
		a.isDeadlock = false
		a.srcID = -1
		a.spinStarted = false
	}
	fwd := a.r.CloneSM(sm)
	fwd.Path = fwd.Path[1:]
	a.r.SendSM(out, fwd)
}

// PickSM implements sim.Agent: SM class priority first (probe_move > move
// = kill_move > probe), then the rotating dynamic priority of the sending
// router, then the lower router id — a total order, so contention is
// deterministic.
func (a *Agent) PickSM(_ int, cands []*sim.SM) *sim.SM {
	now := a.r.Now()
	best := cands[0]
	for _, c := range cands[1:] {
		if smLess(a.s, now, best, c) {
			best = c
		}
	}
	a.count("sm_contention_drops", int64(len(cands)-1))
	return best
}

// smLess reports whether b outranks a.
func smLess(s *Scheme, now int64, a, b *sim.SM) bool {
	ca, cb := a.Kind.ClassPriority(), b.Kind.ClassPriority()
	if ca != cb {
		return cb > ca
	}
	pa, pb := s.Priority(a.Sender, now), s.Priority(b.Sender, now)
	if pa != pb {
		return pb > pa
	}
	return b.Sender < a.Sender
}
