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

// handleProbe implements Phase I processing: the initiator's own probe
// returning on the watched port may confirm the deadlock (ConfirmsLoop);
// every other probe meets the forking rule (ForkProbe).
func (a *Agent) handleProbe(sm *sim.SM, inPort int) {
	if sm.Sender == a.id && a.role != RoleDD {
		// Already recovering (or idle): a returning copy of an older
		// probe is dropped; the FSM handles one recovery at a time.
		a.count("probe_drops_stale", 1)
		return
	}
	// Only the probe's own virtual network participates: vnets are
	// independent buffer classes, so an idle or moving VC of another class
	// says nothing about this one's dependency cycle.
	var buf [sim.MaxVCsPerVNet]PortVC
	port := a.portView(&buf, inPort, int(sm.VNet))
	if sm.Sender == a.id && ConfirmsLoop(port, int(sm.FirstOut)) {
		a.confirmDeadlock(sm, inPort, a.r.Now())
		return
	}
	// Otherwise, also for a mid-loop pass of our own live probe through a
	// folded (figure-8) dependency (Fig. 5b, Case II), the probe forks on.
	a.forkProbe(sm, port)
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

// forkProbe sends the probe on as ForkProbe rules, appending each copy's
// output port to its path.
func (a *Agent) forkProbe(sm *sim.SM, port []PortVC) {
	// Rotating-priority rule, for forked copies and past graceHops only: a
	// router drops probes from lower-priority senders. Inside the grace
	// window probes pass freely and priorities only arbitrate port
	// contention (PickSM): any member's returning probe confirms, and
	// near-simultaneous confirmations of the same loop are serialised by
	// the move source-id rule.
	now := a.r.Now()
	culled := sm.Sender != a.id && (sm.Forked || len(sm.Path) >= graceHops) &&
		a.s.Priority(a.id, now) > a.s.Priority(sm.Sender, now)
	var buf [sim.MaxVCsPerVNet]int
	v, outs := ForkProbe(port, ProbeHop{PathLen: len(sm.Path), MaxPath: a.s.maxPath,
		Culled: culled, Forked: sm.Forked, NoFork: a.s.cfg.DisableProbeFork}, buf[:0])
	if v != Forward && v != Fork {
		a.count(v.Counter(), 1)
		return
	}
	for _, out := range outs {
		c := a.r.CloneSM(sm)
		c.Path = append(c.Path, uint8(out))
		c.HopCycles += int64(a.r.LinkLatency(out))
		c.Forked = c.Forked || v == Fork
		a.r.SendSM(out, c)
	}
	if v == Fork {
		a.count("probe_forks", int64(len(outs)-1))
	}
}

// handleMoveLike processes move and probe_move SMs by FreezeOnMove: they
// traverse alike, differing only in which initiator role accepts the
// final return.
func (a *Agent) handleMoveLike(sm *sim.SM, inPort int, isProbeMove bool) {
	wantRole := RoleMove
	if isProbeMove {
		wantRole = RoleProbeMove
	}
	m := MoveHop{Home: sm.Sender == a.id && len(sm.Path) == 0, Latched: a.role == wantRole && inPort == a.loopPort,
		Out: a.nextHop(sm), Holder: a.srcID, Sender: sm.Sender}
	vnet := int(sm.VNet)
	if m.Home {
		m.Out, vnet = a.initOut, a.loopVNet
	}
	var buf [sim.MaxVCsPerVNet]PortVC
	v, k := FreezeOnMove(a.portView(&buf, inPort, vnet), m)
	switch v {
	case Arm, Forward:
		vc := a.vcOf(inPort, vnet, k)
		a.r.FreezeVC(vc)
		a.frozen = append(a.frozen, frozenEntry{vc: vc, out: m.Out})
		a.srcID = sm.Sender
		a.followSpin = sm.SpinCycle
		a.spinStarted = false
	case Cancel:
		a.count(v.Counter(), 1)
		a.startKill(a.r.Now())
		return
	default:
		a.count(v.Counter(), 1)
		return
	}
	if v == Arm {
		a.role = RoleFwdProgress
		// afterSpin fires once every packet of the loop has finished its
		// synchronized movement.
		a.expire = sm.SpinCycle + sim.MaxPktLen
		return
	}
	fwd := a.r.CloneSM(sm)
	fwd.Path = fwd.Path[1:]
	a.r.SendSM(m.Out, fwd)
}

// handleKill processes kill_move by AcceptKill: unfreeze the matching
// frozen VC and forward along the path.
func (a *Agent) handleKill(sm *sim.SM, inPort int) {
	out := a.nextHop(sm)
	switch v := AcceptKill(sm.Sender == a.id && len(sm.Path) == 0, out, a.srcID, sm.Sender); v {
	case Home:
		if a.role == RoleKillMove {
			a.resetToDD(a.r.Now())
		}
		return
	case Ignore, DropKill:
		if v == DropKill {
			a.count(v.Counter(), 1)
		}
		return
	}
	kept := a.frozen[:0]
	removed := false
	for _, e := range a.frozen {
		if !removed && Releases(inPort, out, e.vc.Port(), e.out, e.vc.SpinInProgress()) {
			a.r.UnfreezeVC(e.vc)
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	a.frozen = kept
	if len(a.frozen) == 0 {
		a.srcID = -1
		a.spinStarted = false
	}
	fwd := a.r.CloneSM(sm)
	fwd.Path = fwd.Path[1:]
	a.r.SendSM(out, fwd)
}

// nextHop is sm's next output port, -1 when its path is used up or names
// no link.
func (a *Agent) nextHop(sm *sim.SM) int {
	if len(sm.Path) == 0 || !a.r.HasOutLink(int(sm.Path[0])) {
		return -1
	}
	return int(sm.Path[0])
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
