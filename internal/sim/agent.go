package sim

// Agent is the per-router deadlock-freedom agent. SPIN, Static Bubble and
// bubble flow control are implemented as Agents; pure avoidance schemes
// (turn models, VC ladders) need none and run with a nil agent.
//
// The engine calls the hooks at fixed points of each cycle:
//
//  1. arriving SMs are delivered via HandleSM (in input-port order),
//  2. PublishView runs on the awake routers' agents,
//  3. Tick runs (counters, probes, freezes, spin launches),
//  4. switch allocation consults Frozen VCs, FilterSend and FilterInject.
type Agent interface {
	// Tick runs once per cycle after SM delivery and before switch
	// allocation.
	Tick()
	// Quiescent reports whether Tick would be a no-op given the router's
	// current state; the engine then skips Tick for routers with no
	// buffered flits. It must only return true when skipping Tick is
	// observably identical to running it.
	Quiescent() bool
	// PublishView copies the state other routers' agents read during
	// phase 2 (the SPIN follower chain) into a snapshot that stays
	// immutable through phase 2. It runs at the end of phase 1 — after SM
	// delivery, before any Tick.
	PublishView()
	// HandleSM delivers a special message that arrived on inPort this
	// cycle.
	HandleSM(sm *SM, inPort int)
	// PickSM resolves contention among SMs that want the same output port
	// in the same cycle, returning the winner; the rest are dropped.
	PickSM(outPort int, candidates []*SM) *SM
	// FilterSend reports whether the resident packet of vc may take dvc at
	// outPort this cycle (bubble schemes veto sends that would consume the
	// last free packet slot of a ring).
	FilterSend(vc *VC, outPort int, dvc *VC) bool
	// FilterInject reports whether the NIC may begin injecting p into vc
	// this cycle.
	FilterInject(vc *VC, p *Packet) bool
}

// Scheme builds the per-router Agents of a deadlock-freedom scheme and
// describes it for tables.
type Scheme interface {
	// Name identifies the scheme ("spin", "static_bubble", ...).
	Name() string
	// Attach is called once per run, by Network.Reset; the scheme must
	// install an agent on every router with Network.SetAgent and may keep
	// the Network for global bookkeeping (rotating priorities need the
	// router count). Reset leaves each router's agent of this network's
	// last run in place: Attach may recycle the one Router.Agent returns
	// if it is of its own type, rewriting it as a literal that names only
	// what survives, so that nothing of the last run leaks into this one.
	Attach(n *Network)
}

// BaseAgent is an Agent that does nothing and permits everything. Embed it
// to implement only the hooks a scheme needs.
type BaseAgent struct{}

// Tick implements Agent.
func (BaseAgent) Tick() {}

// Quiescent implements Agent conservatively: the agent is ticked every
// cycle.
func (BaseAgent) Quiescent() bool { return false }

// PublishView implements Agent; there is no view to publish.
func (BaseAgent) PublishView() {}

// HandleSM implements Agent; SMs are ignored.
func (BaseAgent) HandleSM(*SM, int) {}

// PickSM implements Agent with class priority then first-come order.
func (BaseAgent) PickSM(_ int, candidates []*SM) *SM {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Kind.ClassPriority() > best.Kind.ClassPriority() {
			best = c
		}
	}
	return best
}

// FilterSend implements Agent, permitting every send.
func (BaseAgent) FilterSend(*VC, int, *VC) bool { return true }

// FilterInject implements Agent, permitting every injection.
func (BaseAgent) FilterInject(*VC, *Packet) bool { return true }
