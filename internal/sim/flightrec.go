package sim

// EventRing is the simulator's one bounded event store: a preallocated
// ring keeping the last Cap events whose kind its mask selects. Writing
// never allocates, so a ring may sit in the hot path of a saturated run.
// Its two standing instances are the flight recorder (SpinEvents, plus
// the first-failure snapshot; see AttachFlightRecorder) and the event
// tail harness.Drive keeps for failure artifacts and `spinsim -trace`.
type EventRing struct {
	mask KindMask
	ring []Event
	next int    // slot the next event lands in
	n    uint64 // events kept plus overwritten (monotonic)

	snap *ForensicsSnapshot // flight recorder only: first-failure snapshot
}

// NewEventRing builds a ring holding the last capacity events (<= 0
// selects 256) of the kinds in mask.
func NewEventRing(capacity int, mask KindMask) *EventRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &EventRing{mask: mask, ring: make([]Event, capacity)}
}

// Mask reports which kinds the ring keeps; pass it to Network.AddObserver.
func (r *EventRing) Mask() KindMask { return r.mask }

// Event implements Probe: it stores e if the mask selects its kind,
// overwriting the oldest entry once full.
func (r *EventRing) Event(e Event) {
	if !r.mask.Has(e.Kind) {
		return
	}
	r.ring[r.next] = e
	r.n++
	if r.next++; r.next == len(r.ring) {
		r.next = 0
	}
}

// Total reports how many events matched the mask (kept plus
// overwritten).
func (r *EventRing) Total() uint64 { return r.n }

// Cap reports the ring capacity.
func (r *EventRing) Cap() int { return len(r.ring) }

// Len reports how many events are currently retained.
func (r *EventRing) Len() int { return int(min(r.n, uint64(len(r.ring)))) }

// Events returns the retained events oldest-first (a copy; the ring may
// keep recording).
func (r *EventRing) Events() []Event {
	if r.n <= uint64(len(r.ring)) {
		return append([]Event(nil), r.ring[:r.n]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Snapshot returns the forensics snapshot taken at the first invariant
// failure, or nil if none fired (always nil on a ring that is not the
// network's flight recorder).
func (r *EventRing) Snapshot() *ForensicsSnapshot { return r.snap }

// VCForensics is the frozen point-in-time state of one virtual channel
// involved in (or adjacent to) a recovery — the per-VC freeze state the
// snapshot captures, plus the downstream grant that stitches individual
// VCs into the spinning chain.
type VCForensics struct {
	Router   int  `json:"router"`
	Port     int  `json:"port"`
	VC       int  `json:"vc"`
	Frozen   bool `json:"frozen,omitempty"`
	Spinning bool `json:"spinning,omitempty"`
	// Deadlocked marks membership in the global oracle's deadlocked set
	// at snapshot time (a blocked VC that recovery never touched — the
	// shape a disabled or defeated protocol leaves behind).
	Deadlocked bool `json:"deadlocked,omitempty"`
	// Packet is the resident (front) packet ID, 0 when the VC is empty.
	Packet   uint64 `json:"packet,omitempty"`
	BufLen   int    `json:"buf_len"`
	InFlight int    `json:"in_flight,omitempty"`
	// OutPort is the granted output port (-1 before allocation); the
	// Down* triple names the downstream VC of the grant (-1s when none).
	OutPort    int `json:"out_port"`
	DownRouter int `json:"down_router"`
	DownPort   int `json:"down_port"`
	DownVC     int `json:"down_vc"`
}

// ForensicsSnapshot is the flight recorder's dump at the moment an
// invariant fired: the retained SPIN event tail, the reason, and the
// chain of frozen/spinning VCs (each with its downstream grant, so the
// deadlocked loop can be walked hop by hop).
type ForensicsSnapshot struct {
	Cycle  int64  `json:"cycle"`
	Reason string `json:"reason"`
	// Total is how many SPIN events the recorder saw over the whole run;
	// len(Events) of them (the most recent) are retained.
	Total  uint64  `json:"events_total"`
	Events []Event `json:"events"`
	// SpinningVCs is the freeze/spin chain: every frozen or spinning VC
	// plus the downstream VCs their residents hold grants on.
	SpinningVCs []VCForensics `json:"spinning_vcs,omitempty"`
}

// AttachFlightRecorder puts the always-on crash-safe observer on the
// network: a ring of the last capacity (<= 0 selects 1024) SPIN protocol
// events — probes and state-machine sends, kills, spins, per-VC freeze
// transitions, oracle firings. When the invariant checker fires, or a
// harness reports a failed drain, CaptureForensics snapshots the ring
// with the frozen/spinning-VC chain into a ForensicsSnapshot, the
// snapshot of internal/harness's replayable failure artifact.
func (n *Network) AttachFlightRecorder(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = 1024
	}
	n.flight = NewEventRing(capacity, SpinEvents)
	n.AddObserver(SpinEvents, n.flight)
	return n.flight
}

// FlightRecorder returns the attached recorder, or nil.
func (n *Network) FlightRecorder() *EventRing { return n.flight }

// CaptureForensics takes the first-failure snapshot: the event ring
// plus the current frozen/spinning-VC chain. Only the first capture
// sticks (the moment the first invariant fired is the diagnostic one);
// later calls return the existing snapshot. It is a no-op (nil) without
// an attached recorder. The invariant checker calls it from its report
// path; harnesses call it directly for non-checker failures (e.g. an
// incomplete drain).
func (n *Network) CaptureForensics(reason string) *ForensicsSnapshot {
	rec := n.flight
	if rec == nil {
		return nil
	}
	if rec.snap != nil {
		return rec.snap
	}
	rec.snap = &ForensicsSnapshot{
		Cycle:       n.now,
		Reason:      reason,
		Total:       rec.n,
		Events:      rec.Events(),
		SpinningVCs: n.vcChain(),
	}
	return rec.snap
}

// vcChain collects every frozen, spinning, or oracle-deadlocked VC plus
// the downstream VCs reachable through their grants — the recovery (or
// failed-to-recover) chain at snapshot time.
func (n *Network) vcChain() []VCForensics {
	const inChain, deadlocked = 1, 2
	marks := make([]uint8, n.vcBase[len(n.routers)]) // by vcIndex
	var chain []*VC
	add := func(v *VC, mark uint8) {
		if v == nil {
			return
		}
		if marks[n.vcIndex(v)] == 0 {
			chain = append(chain, v)
		}
		marks[n.vcIndex(v)] |= inChain | mark
	}
	for _, r := range n.routers {
		for s := range r.vcFlat {
			if v := &r.vcFlat[s]; v.flags&(vcFrozen|vcSpinning) != 0 {
				add(v, 0)
			}
		}
	}
	// The oracle's deadlocked set covers the case recovery never ran
	// (disabled protocol, exceeded bound): blocked VCs with no freeze or
	// spin state still form the chain worth dumping.
	for _, d := range n.FindDeadlock() {
		add(&n.routers[d.Router].in[d.Port][d.Index], deadlocked)
	}
	// Walk grants: each chain member's downstream target joins the chain,
	// closing the loop when the deadlocked cycle bites its own tail.
	for i := 0; i < len(chain); i++ {
		add(chain[i].target, 0)
	}
	out := make([]VCForensics, 0, len(chain))
	for _, v := range chain {
		f := VCForensics{
			Router:     v.router.ID,
			Port:       v.Port(),
			VC:         v.Index(),
			Frozen:     v.Frozen(),
			Spinning:   v.SpinInProgress(),
			Deadlocked: marks[n.vcIndex(v)]&deadlocked != 0,
			BufLen:     len(v.buf),
			InFlight:   int(v.inFlight),
			OutPort:    int(v.outPort),
			DownRouter: -1,
			DownPort:   -1,
			DownVC:     -1,
		}
		if p := v.FrontPacket(); p != nil {
			f.Packet = p.ID
		}
		if v.target != nil {
			f.DownRouter = v.target.router.ID
			f.DownPort = v.target.Port()
			f.DownVC = v.target.Index()
		}
		out = append(out, f)
	}
	return out
}
