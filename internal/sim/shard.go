package sim

import (
	"fmt"
	"math/bits"
	"sort"
)

// The sharded cycle engine partitions routers (with their NICs and
// terminals) into contiguous spatial shards, each stepped by a persistent
// worker. A cycle is two parallel phases plus a serial commit:
//
//   - Phase 1 (per shard): deliver link arrivals into the shard's own
//     routers, run traffic generation over the shard's terminals (each on
//     its private RNG stream), inject NIC flits, and publish agent views.
//   - Phase 2 (per shard): route computation, agent ticks, spin claims,
//     SM arbitration, and switch allocation over the shard's routers.
//     Cross-shard effects — VC reservations, in-flight credits, link
//     activations, ejection observers — are buffered into per-shard
//     outboxes instead of applied.
//   - Commit (serial): outboxes are merged in canonical shard order,
//     per-shard stats fold into the global Stats, VC snapshots refresh,
//     and the telemetry/checker hooks run.
//
// Determinism contract: every cross-router read during the parallel
// phases goes through state frozen at a barrier — VC snapshots refreshed
// at the previous commit, agent views published at the end of phase 1 —
// and every cross-router write is buffered and applied in shard-major
// order at commit. Output is therefore byte-identical at any shard count
// and any worker-pool size. Shards of one router range run the identical
// code path (outboxes included) inline on the caller, with no goroutines.

// Event-phase buckets. When a telemetry probe is attached to a sharded
// run, events are buffered per (shard, phase bucket) and flushed at
// commit bucket-major then shard-major, giving one canonical order
// regardless of worker interleaving.
const (
	phDeliver = iota
	phGen
	phInject
	phRoute
	phTick
	phResolve
	phSpin
	phSA
	numPhases
)

// SerialOnly marks a Scheme or TrafficGen whose step-time behavior cannot
// run under the sharded engine (cross-router live scans, shared mutable
// generation state). Implementations report whether serial stepping is
// required; types that do NOT implement the interface are conservatively
// treated as serial-only and clamp the shard count to 1.
type SerialOnly interface {
	RequiresSerialStep() bool
}

// ShardCloner is implemented by routing algorithms that support the
// sharded engine: CloneForShard returns an instance with private scratch
// state (lookup tables may be shared read-only; the clone must not build
// them lazily). Algorithms without it clamp the shard count to 1.
type ShardCloner interface {
	CloneForShard() RoutingAlgorithm
}

// TrafficPrep is implemented by traffic generators that keep per-terminal
// state; PrepareTerminals is called once before the first cycle with the
// terminal count.
type TrafficPrep interface {
	PrepareTerminals(n int)
}

// ViewPublisher is implemented by agents whose state other routers' agents
// read during phase 2 (the SPIN follower chain). PublishView is called at
// the end of phase 1 — after SM delivery, before any Tick — and must copy
// the cross-router-visible fields into a snapshot that stays immutable
// through phase 2.
type ViewPublisher interface {
	PublishView()
}

// bitset is the engine's worklist: one bit per entity of a population,
// walked in ascending order a word at a time with bits.TrailingZeros64,
// so entities with nothing to do cost nothing.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]>>uint(i&63)&1 != 0 }

// window32 returns bits [i, i+32) of b as a word, zero past its end.
func (b bitset) window32(i int) uint32 {
	w, o := i>>6, uint(i&63)
	x := b[w] >> o
	if o > 32 && w+1 < len(b) {
		x |= b[w+1] << (64 - o)
	}
	return uint32(x)
}

// resvOp is a deferred downstream-VC reservation. Normal reservations
// (switch allocation grants) are unique per VC per cycle — each input
// port is fed by exactly one link and each output port sends at most one
// head per cycle — so their commit order is irrelevant. Force
// reservations (spin targets) are applied first; a normal reservation
// finding the VC already owned then stands down in favor of the spin.
type resvOp struct {
	dvc   *VC
	pkt   *Packet
	force bool
}

// ejectRec is a fully ejected packet awaiting the serial commit replay of
// its observers (telemetry, eject hook, invariant checker, pool recycle).
type ejectRec struct {
	p        *Packet
	lat      int64
	measured bool
}

// shardState is one shard: a contiguous router range, the terminals and
// inbound links attached to it, private scratch and free lists, and the
// outboxes carrying its cross-shard effects to commit.
type shardState struct {
	n  *Network
	id int

	r0, r1 int     // router id range [r0, r1)
	l0, l1 int     // link index range [l0, l1): links whose dst lies in the shard
	terms  []int32 // terminals attached to the shard's routers, ascending

	// routing is the shard-private algorithm instance (the configured one
	// for serial runs, a CloneForShard copy otherwise).
	routing RoutingAlgorithm

	// stats accumulates the shard's measurements, drained into the global
	// Stats at every commit (so Network.Stats is always current between
	// steps). dQueued/dInNetwork are deltas against the global gauges.
	stats      Stats
	dQueued    int
	dInNetwork int
	busyFlit   int64
	busySM     int64

	// The shard's worklists. linkActive: bit i covers inbound link l0+i;
	// set bits arrive via commit (linkMarks of the sending shard), cleared
	// bits are shard-local in phase 1. awake: bit i covers router r0+i; set
	// by Router.wake, cleared in phase 2 once active() is false. nicBusy:
	// bit i covers terminal terms[i]; set by Network.inject, cleared in
	// phase 1 once the NIC has nothing queued or mid-injection. nicBlocked:
	// the busy NICs whose next packet found every terminal VC full; set by
	// injectStep, cleared by a dequeue at the terminal port (the only thing
	// that makes room); phase 1 walks nicBusy &^ nicBlocked.
	linkActive bitset
	awake      bitset
	nicBusy    bitset
	nicBlocked bitset

	// saVisits counts the turns saStage has handed out (the work the
	// blocked index exists to avoid).
	saVisits int64

	active   []*Router
	flitBuf  []flitTransit
	smBuf    []smTransit
	routeBuf []PortRequest // routeStage's scratch for one Route call

	pktPool []*Packet
	smPool  []*SM

	injectTerm int
	injectFn   func(PacketSpec)

	// Outboxes (cross-shard effects buffered during the parallel phases).
	resvOps     []resvOp
	inFlightOps []*VC
	linkMarks   []int32
	ejects      []ejectRec
	dirtyVCs    []*VC

	phase  int
	events [numPhases][]Event

	panicVal any
}

// emitEvent delivers an event: directly in serial runs (preserving the
// historical in-cycle interleaving), via the shard's phase bucket
// otherwise. Callers guard with Network.wants(kind).
func (s *shardState) emitEvent(e Event) {
	if s.n.nShards == 1 {
		s.n.emit(e)
		return
	}
	s.events[s.phase] = append(s.events[s.phase], e)
}

// allocSM pulls a recycled special message from the shard's free list
// (keeping its Path capacity) or allocates a fresh one.
func (s *shardState) allocSM() *SM {
	if k := len(s.smPool); k > 0 {
		sm := s.smPool[k-1]
		s.smPool[k-1] = nil
		s.smPool = s.smPool[:k-1]
		path := sm.Path[:0]
		*sm = SM{Path: path, pooled: true}
		return sm
	}
	return &SM{pooled: true}
}

// freeSM returns a pool-owned SM to the shard's free list. SMs built
// directly by tests (composite literals) are left to the garbage
// collector.
func (s *shardState) freeSM(sm *SM) {
	if sm == nil || !sm.pooled {
		return
	}
	s.smPool = append(s.smPool, sm)
}

// phase1 delivers arrivals, generates and injects traffic, and publishes
// agent views for the shard.
func (s *shardState) phase1() {
	n := s.n
	s.phase = phDeliver
	s.deliverArrivals()
	if n.cfg.Traffic != nil {
		s.phase = phGen
		for _, t := range s.terms {
			s.injectTerm = int(t)
			n.cfg.Traffic.Generate(n.now, int(t), n.termRNG[t], s.injectFn)
		}
	}
	s.phase = phInject
	for w, word := range s.nicBusy {
		word &^= s.nicBlocked[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			nic := n.nics[s.terms[w*64+b]]
			nic.injectStep(n, s)
			if nic.cur == nil && nic.head == len(nic.queue) {
				s.nicBusy.clear(w*64 + b)
			}
		}
	}
	// Agent views are published after every SM delivery and injection of
	// the cycle, so phase-2 readers on any shard observe one consistent,
	// pre-Tick snapshot. Only awake routers can have one to publish: an
	// agent's follower state changes in HandleSM (which wakes the router)
	// or in its own Tick (whose router stays awake through this phase).
	for w, word := range s.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if vp := n.routers[s.r0+w*64+b].vpub; vp != nil {
				vp.PublishView()
			}
		}
	}
}

// phase2 runs the compute stages over the shard's active routers. The
// stages are fused per shard (no global barrier between them): every
// cross-router read inside them goes through VC snapshots or published
// views, so no shard can observe another's intra-phase progress.
func (s *shardState) phase2() {
	active := s.active[:0]
	for w, word := range s.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if r := s.n.routers[s.r0+w*64+b]; r.active() {
				active = append(active, r)
			} else {
				s.awake.clear(w*64 + b)
			}
		}
	}
	s.active = active
	s.phase = phRoute
	for _, r := range active {
		r.routeStage()
	}
	s.phase = phTick
	for _, r := range active {
		if r.agent != nil {
			r.agent.Tick()
		}
	}
	s.phase = phResolve
	for _, r := range active {
		r.claimSpinPorts()
		r.resolveSMs()
	}
	s.phase = phSpin
	for _, r := range active {
		r.spinStage()
	}
	s.phase = phSA
	for _, r := range active {
		r.saStage()
	}
}

// deliverArrivals moves flits and SMs that complete link traversal this
// cycle into the shard's input VCs and agent inboxes. Only links with
// traffic in flight are visited, in ascending link order; links are
// sorted by destination router at build, so shard-major order equals
// global link order.
func (s *shardState) deliverArrivals() {
	n := s.n
	for w, word := range s.linkActive {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			l := n.links[s.l0+w*64+b]
			s.deliverLink(l)
			if len(l.flits) == 0 && len(l.sms) == 0 {
				s.linkActive.clear(w*64 + b)
			}
		}
	}
}

func (s *shardState) deliverLink(l *link) {
	n := s.n
	s.flitBuf = s.flitBuf[:0]
	s.smBuf = s.smBuf[:0]
	s.flitBuf, s.smBuf = l.takeArrivals(n.now, s.flitBuf, s.smBuf)
	for _, t := range s.flitBuf {
		t.dst.inFlight--
		t.dst.enqueue(t.flit, n.now)
		if n.measuring() {
			s.stats.BufferWrites++
		}
		if t.flit.IsHead() {
			pkt := t.flit.Pkt
			pkt.Hops++
			// Misroute accounting: a hop that fails to reduce the
			// distance to the phase-local destination.
			cur, prev := l.dst.ID, l.topo.Src
			topo := n.cfg.Topology
			if topo.Distance(cur, pkt.RouteDst()) >= topo.Distance(prev, pkt.RouteDst()) {
				pkt.Misroutes++
			}
			if l.global {
				pkt.GlobalHops++
			}
		}
	}
	if len(s.smBuf) > 1 {
		sort.SliceStable(s.smBuf, func(i, j int) bool {
			return s.smBuf[i].sm.Kind.ClassPriority() > s.smBuf[j].sm.Kind.ClassPriority()
		})
	}
	for _, t := range s.smBuf {
		if n.wants(EvSMDeliver) {
			s.emitEvent(Event{Cycle: n.now, Kind: EvSMDeliver, Router: l.dst.ID,
				Port: l.topo.DstPort, Src: t.sm.Sender, VNet: int(t.sm.VNet),
				SM: t.sm.Kind.String(), Tag: t.sm.Tag, Arg: t.sm.SpinCycle})
		}
		if a := l.dst.agent; a != nil {
			a.HandleSM(t.sm, l.topo.DstPort)
			l.dst.wake()
		}
		// Delivered SMs are dead: agents copy (CloneSM) anything they
		// forward and never retain the original.
		s.freeSM(t.sm)
	}
}

// ejected accounts a flit leaving the network; on tails it finalises the
// packet and defers observer replay (telemetry, hooks, checker, pool
// recycle) to commit.
func (s *shardState) ejected(f Flit) {
	n := s.n
	s.stats.EjectedFlits++
	if n.measuring() {
		s.stats.EjectedFlitsMeas++
	}
	if n.wants(EvFlitEject) {
		s.emitEvent(Event{Cycle: n.now, Kind: EvFlitEject, Router: f.Pkt.DstRouter,
			Packet: f.Pkt.ID, VNet: f.Pkt.VNet})
	}
	if !f.IsTail() {
		return
	}
	p := f.Pkt
	if p.Checksum != checksumFor(p.ID, p.Src, p.Dst, p.Length) {
		panic(fmt.Sprintf("sim: payload corruption in %v", p))
	}
	if dst := n.cfg.Topology.TerminalRouter(p.Dst); dst != p.DstRouter {
		panic(fmt.Sprintf("sim: %v ejected at wrong router", p))
	}
	p.EjectCycle = n.now
	s.stats.Ejected++
	s.dInNetwork--
	measured := p.GenCycle >= n.cfg.StatsStart
	if measured {
		s.stats.EjectedMeasured++
		lat := p.EjectCycle - p.GenCycle
		s.stats.LatencySum += lat
		s.stats.NetLatencySum += p.EjectCycle - p.InjectCycle
		s.stats.HopSum += int64(p.Hops)
		s.stats.MisrouteSum += int64(p.Misroutes)
		if lat > s.stats.MaxLatency {
			s.stats.MaxLatency = lat
		}
	}
	if n.tele != nil || n.wants(EvPacketEject) || n.ejectHook != nil || n.checker != nil || n.trafObs != nil || p.pooled {
		s.ejects = append(s.ejects, ejectRec{p: p, lat: p.EjectCycle - p.GenCycle, measured: measured})
	}
}

// runParallel executes one prebuilt per-shard closure set: shard 0 inline
// on the caller, the rest on the persistent workers. Worker panics are
// captured and re-raised on the caller in shard order, preserving the
// serial engine's panic-on-corruption semantics.
func (n *Network) runParallel(fns []func()) {
	if n.nShards == 1 {
		fns[0]()
		return
	}
	n.phaseWG.Add(n.nShards - 1)
	for i := 1; i < n.nShards; i++ {
		n.work <- fns[i]
	}
	fns[0]()
	n.phaseWG.Wait()
	for _, s := range n.shards {
		if pv := s.panicVal; pv != nil {
			s.panicVal = nil
			panic(pv)
		}
	}
}

// commit merges the shards' outboxes in canonical order and runs the
// serial end-of-cycle work. See the package comment at the top of this
// file for the full ordering argument.
func (n *Network) commit() {
	now := n.now
	// 1. Spin force-reservations, shards ascending.
	for _, s := range n.shards {
		for _, op := range s.resvOps {
			if op.force {
				op.dvc.applyReserve(op.pkt, now)
			}
		}
	}
	// 2. Normal reservations. At most one per VC per cycle can exist (one
	// inbound link, one head per output port); if a spin force-reserved
	// the VC this cycle the grant stands down and the spin keeps it.
	for _, s := range n.shards {
		for i, op := range s.resvOps {
			if !op.force && op.dvc.resvOwner == nil {
				op.dvc.applyReserve(op.pkt, now)
			}
			s.resvOps[i] = resvOp{}
		}
		s.resvOps = s.resvOps[:0]
	}
	// 3. In-flight credits for flits launched this cycle.
	for _, s := range n.shards {
		for i, v := range s.inFlightOps {
			v.inFlight++
			v.markDirty()
			s.inFlightOps[i] = nil
		}
		s.inFlightOps = s.inFlightOps[:0]
	}
	// 4. Link activations into the owning shards' bitsets.
	for _, s := range n.shards {
		for _, li := range s.linkMarks {
			o := n.shards[n.linkShard[li]]
			o.linkActive.set(int(li) - o.l0)
		}
		s.linkMarks = s.linkMarks[:0]
	}
	// 5. Stats and gauge deltas — before the checker, whose conservation
	// sweep reads the merged flit totals.
	for _, s := range n.shards {
		s.stats.drainInto(&n.stats)
		n.queuedPackets += s.dQueued
		s.dQueued = 0
		n.inNetwork += s.dInNetwork
		s.dInNetwork = 0
	}
	// 6. Refresh the snapshots of every VC whose state changed.
	for _, s := range n.shards {
		for i, v := range s.dirtyVCs {
			v.refreshSnap()
			s.dirtyVCs[i] = nil
		}
		s.dirtyVCs = s.dirtyVCs[:0]
	}
	// 7. Telemetry busy counters.
	if n.tele != nil {
		for _, s := range n.shards {
			n.tele.busyFlit += s.busyFlit
			n.tele.busySM += s.busySM
			s.busyFlit, s.busySM = 0, 0
		}
	}
	// 8. Buffered events, bucket-major then shard-major (serial runs emit
	// directly and skip the buffers entirely).
	if n.nShards > 1 && n.evMask != 0 {
		for ph := 0; ph < numPhases; ph++ {
			for _, s := range n.shards {
				for i := range s.events[ph] {
					n.emit(s.events[ph][i])
				}
				s.events[ph] = s.events[ph][:0]
			}
		}
	}
	// 9. Ejection observer replay in shard order; pooled packets recycle
	// into the shard owning their source terminal (where injection draws
	// from) unless an observer may have retained the pointer.
	for _, s := range n.shards {
		for i, rec := range s.ejects {
			p := rec.p
			if n.tele != nil {
				n.tele.onEject(rec.lat, rec.measured)
			}
			if n.wants(EvPacketEject) {
				n.emit(Event{Cycle: n.now, Kind: EvPacketEject, Router: p.DstRouter,
					Packet: p.ID, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Arg: rec.lat})
			}
			if n.ejectHook != nil {
				n.ejectHook(p)
			}
			if n.trafObs != nil {
				// Closed-loop accounting: the observer must not retain p
				// (it may be recycled below), so recycling stays legal.
				n.trafObs.OnEject(p)
			}
			if n.checker != nil {
				n.checker.onEject(p)
			}
			if p.pooled && n.ejectHook == nil && n.checker == nil {
				o := n.shards[n.termShard[p.Src]]
				o.pktPool = append(o.pktPool, p)
			}
			s.ejects[i] = ejectRec{}
		}
		s.ejects = s.ejects[:0]
	}
	// 10-11. Checker, cycle counters, telemetry window close.
	if n.checker != nil {
		n.checker.endOfStep()
	}
	if n.measuring() {
		n.stats.MeasuredCycles++
	}
	n.stats.Cycles++
	n.now++
	if n.tele != nil {
		n.tele.onCycle()
	}
}
