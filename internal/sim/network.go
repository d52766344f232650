package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topology"
)

// TrafficGen produces packets, one terminal at a time. A terminal takes a
// turn at the cycle its source is attached and then at each cycle its
// source names, never on a cycle in between:
//
//   - Generate emits the packet specs terminal src injects at cycle now and
//     returns the next cycle, after now, at which src needs a turn. Every
//     cycle it skips is a turn settled to emit nothing.
//   - rng is src's private stream, so what a terminal generates never
//     depends on which other terminals take turns. A skipped turn that
//     would have drawn is settled with rng.Misses, which draws for it in
//     the order a turn at a time would have, so skipping changes no draw.
//   - It may settle turns before limit only: it returns a cycle no later
//     than limit, or a later one only when no turn before that cycle draws
//     at all (a source that sleeps). The engine passes a fixed horizon; a
//     wrapper passes the cycle its own state changes at.
//   - An eject at a ClosedLoopTraffic terminal gives it a turn at the next
//     cycle, whatever it asked for.
//   - When generation stops (Drain, SetTraffic), the draws settled for
//     turns not yet reached go back on their streams, and each of those
//     terminals takes a turn as soon as generation resumes: cycles without
//     a source are no turns at all, as when every terminal was called on
//     every cycle.
//
// State shared across terminals is the source's own: the first terminal
// to take a turn at a cycle can advance it for the rest (a stream replay
// pumps its trace there).
type TrafficGen interface {
	Generate(now, limit int64, src int, rng *Stream, emit func(PacketSpec)) (next int64)
}

// Never is the turn a source names for a terminal that needs none until
// something else re-arms it.
const Never int64 = math.MaxInt64

// ClosedLoopTraffic is the contract of a TrafficGen with obligations
// beyond its next packet: request/response clients with finite windows.
// The engine hands it every ejected packet during commit; Drain keeps it
// attached in quiesce mode and waits for InWindow to reach zero; the
// invariant checker audits its windows every cycle.
type ClosedLoopTraffic interface {
	// OnEject retires outstanding requests and queues replies. p is valid
	// only for the call: the engine may recycle it.
	OnEject(p *Packet)
	// Quiesce(true) stops new work; obligations (pending replies) are
	// still met, so the network can reach a truly empty state.
	Quiesce(on bool)
	// WindowLimit is W, the per-terminal outstanding-request cap.
	WindowLimit() int
	// Outstanding reports terminal t's current in-window requests.
	Outstanding(t int) int
	// InWindow reports the total outstanding requests across terminals.
	InWindow() int64
	// AuditWindows returns the first internal accounting violation the
	// generator has detected (a reply without a matching issued
	// request, completions exceeding issues), or nil.
	AuditWindows() error
}

// MaxPktLen is the largest packet the engine injects, in flits.
const MaxPktLen = 5

// Config assembles a simulation.
type Config struct {
	Topology topology.Topology
	Routing  RoutingAlgorithm
	Scheme   Scheme     // nil: no deadlock handling beyond the routing itself
	Traffic  TrafficGen // nil: no open-loop traffic (tests drive manually)

	VNets      int // virtual networks (message classes); default 1
	VCsPerVNet int // VCs per vnet per port; default 1
	VCDepth    int // flits per VC; default MaxPktLen

	Seed       int64
	StatsStart int64 // cycle measurement begins (warmup length)
}

func (c *Config) setDefaults() error {
	if c.Topology == nil {
		return fmt.Errorf("sim: config needs a topology")
	}
	if c.Routing == nil {
		return fmt.Errorf("sim: config needs a routing algorithm")
	}
	if c.VNets == 0 {
		c.VNets = 1
	}
	if c.VCsPerVNet == 0 {
		c.VCsPerVNet = 1
	}
	if c.VCDepth == 0 {
		c.VCDepth = MaxPktLen
	}
	if c.VCsPerVNet > MaxVCsPerVNet {
		return fmt.Errorf("sim: at most %d VCs per vnet, got %d", MaxVCsPerVNet, c.VCsPerVNet)
	}
	if c.VNets > MaxVCsPerPort/c.VCsPerVNet {
		return fmt.Errorf("sim: at most %d VCs per port, got %d vnets x %d VCs", MaxVCsPerPort, c.VNets, c.VCsPerVNet)
	}
	if c.VCDepth < MaxPktLen {
		return fmt.Errorf("sim: VCDepth %d < MaxPktLen %d breaks virtual cut-through (and the spin space argument)", c.VCDepth, MaxPktLen)
	}
	if c.VCDepth > MaxVCDepth {
		return fmt.Errorf("sim: at most %d flits per VC, got %d", MaxVCDepth, c.VCDepth)
	}
	return nil
}

// Network is a running simulation instance.
type Network struct {
	cfg     Config
	routers []*Router
	links   []*link
	nics    []*NIC
	now     int64
	stats   Stats

	// Per-entity RNG streams (see rng.go): routers draw for adaptive
	// tie-breaking, terminals for traffic generation.
	routerRNG []Stream
	termRNG   []Stream

	// Traffic turns (see engine.go): due[t] is the cycle terminal t's source
	// asked for its next turn. turnWheel holds, in slot c%turnSlots, the
	// terminals due at a cycle c less than turnSlots ahead; farTurns marks
	// those due later, moved into the wheel as their slot comes round.
	due       []int64
	turnWheel bitset
	farTurns  bitset
	turnWords int // words per wheel slot

	// freeStride is the bit stride between input ports in Router.inFree:
	// the VCs of a port rounded up to whole words, so that a port's bits
	// are a word-aligned window an upstream router can hold a slice of.
	freeStride int
	// vcBase[r] is the index of router r's slot 0 among all VCs (see vcIndex),
	// its last entry their count: what the checker's and the oracle's per-VC
	// side tables are indexed by.
	vcBase []int32

	inNetwork     int // packets injected (head) but not fully ejected
	queuedPackets int // packets waiting in NIC source queues (incremental)

	// The arrival wheel (see engine.go): wheel[c%len(wheel)] holds the
	// flits that land at cycle c, filed in send order, and wheelPos is
	// now%len(wheel). It has one slot per cycle of the longest link delay.
	wheel    [][]flitTransit
	wheelPos int

	// The engine's worklists (see engine.go), one bit per link index, router
	// id or terminal id. linkActive: the links with SMs in flight; set by
	// resolveSMs and first read by the next cycle's phase 1, which clears it
	// once the link's last SM is delivered. awake: set by Router.wake,
	// cleared in phase 2 once active() is false. nicBusy: set by inject,
	// cleared in phase 1 once the NIC has nothing queued or mid-injection.
	// nicBlocked: the busy NICs whose next packet found every terminal VC
	// full; set by injectStep, cleared by a dequeue at the terminal port
	// (the only thing that makes room); phase 1 walks nicBusy &^ nicBlocked.
	linkActive bitset
	awake      bitset
	nicBusy    bitset
	nicBlocked bitset
	routerSets bitset // every router's four worklists (see Router.occ), one slab

	// saVisits counts the turns saStage has handed out (the work the
	// blocked index exists to avoid).
	saVisits int64

	// Per-cycle scratch and free lists.
	active   []*Router     // phase 2's routers, ascending
	routeBuf []PortRequest // routeStage's scratch for one Route call
	oracle   oracleScratch // FindDeadlock's graph, kept between calls
	pktPool  []*Packet
	smPool   []*SM
	// pktChunks are the arrays pooled packets are cut from, pktChunk at a
	// time: Reset puts every packet of them back on pktPool, wherever the
	// last run left it.
	pktChunks [][]Packet
	// freeBlocks is the free list of the NICs' record blocks, linked
	// through their next fields; blockChunks are the arrays they are cut
	// from, blockChunk at a time, which Reset puts back on it whole.
	freeBlocks  *recBlock
	blockChunks [][]recBlock
	// srcPkt is the scratch packet AtSource decides on when a packet is
	// generated: only its record is queued (see NIC).
	srcPkt Packet
	// extPkts are InjectPacket's packets still queued at their source, by
	// ID: the caller holds them, so they travel as they are.
	extPkts map[uint64]*Packet

	injectTerm int
	injectFn   func(PacketSpec)

	// What phase 2 does to another router's state, buffered to commit.
	resvOps     []resvOp
	inFlightOps []*VC
	ejects      []ejectRec
	dirtyVCs    []*VC

	// permute, when set, reorders phase 2's router list. Test-only: the
	// order-invariance oracle (export_test.go) is its one writer.
	permute func([]*Router)

	// closed caches the traffic generator's closed-loop role so the hot
	// path pays a nil check, not a type assertion, per cycle.
	closed ClosedLoopTraffic

	// checker, when attached, audits every cycle what that cycle changed
	// and the whole network on a fixed cadence (see checker.go).
	checker *InvariantChecker

	// observers is the one event fan-out and evMask the union of its
	// masks; flight is the observer CaptureForensics snapshots. tele, when
	// attached, is the sampling layer (see telemetry.go).
	observers []observer
	evMask    KindMask
	flight    *EventRing
	tele      *Telemetry
}

// carve cuts *slab's first k elements off as a window that cannot grow.
func carve[T any](slab *[]T, k int) []T {
	w := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return w
}

// NewNetwork builds a network from cfg. It wires the skeleton — routers,
// VCs, links, NICs and RNG sources from one slab each, per-port tables as
// windows of network-wide slabs: a function of (Topology, VNets, VCsPerVNet,
// VCDepth) alone — and leaves every initial value of run state to Reset.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	topo, vcs := cfg.Topology, cfg.VNets*cfg.VCsPerVNet
	n := &Network{cfg: cfg, freeStride: (vcs + 63) / 64 * 64}
	routers := make([]Router, topo.NumRouters())
	n.routers = make([]*Router, len(routers))
	n.vcBase = make([]int32, len(routers)+1)
	ports, words := 0, 0
	for i := range routers {
		radix := topo.Radix(i)
		if radix > 64 {
			return nil, fmt.Errorf("sim: router %d has %d ports, at most 64 are supported", i, radix)
		}
		ports += radix
		words += 3*((radix*vcs+63)/64) + radix*n.freeStride/64
		n.vcBase[i+1] = n.vcBase[i] + int32(radix*vcs)
	}
	vcSlab := make([]VC, ports*vcs)
	in, outVCs := make([][]VC, ports), make([][]VC, ports)
	outLink, outFree := make([]*link, ports), make([]bitset, ports)
	waker, smSends := make([]int32, ports), make([][]*SM, ports)
	n.routerSets = make(bitset, words)
	sets := []uint64(n.routerSets)
	for i := range routers {
		r, radix := &routers[i], topo.Radix(i)
		slotWords := (radix*vcs + 63) / 64
		*r = Router{net: n, ID: i, radix: radix, localPorts: topo.LocalPorts(i),
			in: carve(&in, radix), vcFlat: carve(&vcSlab, radix*vcs),
			outLink: carve(&outLink, radix), outVCs: carve(&outVCs, radix), outFree: carve(&outFree, radix),
			waker: carve(&waker, radix), smSends: carve(&smSends, radix),
			occ: carve(&sets, slotWords), needRoute: carve(&sets, slotWords), blocked: carve(&sets, slotWords),
			inFree: carve(&sets, radix*n.freeStride/64)}
		for slot := range r.vcFlat {
			r.vcFlat[slot] = VC{router: r, port: uint8(slot / vcs), index: uint8(slot % vcs), slot: uint16(slot)}
		}
		for p := range r.in {
			r.in[p] = r.vcFlat[p*vcs : (p+1)*vcs : (p+1)*vcs]
			r.waker[p] = -1
		}
		n.routers[i] = r
	}
	// Links are ordered by destination router (stable over the topology's
	// declaration order): the order phase 1 delivers arrivals in. A counting
	// sort puts each straight into its slot, with no copy of the list.
	topoLinks := topo.Links()
	next := make([]int32, len(routers)+1) // the next slot of each router's links
	for _, tl := range topoLinks {
		next[tl.Dst+1]++
	}
	for r := range routers {
		next[r+1] += next[r]
	}
	links := make([]link, len(topoLinks))
	n.links = make([]*link, len(links))
	maxDelay := routerDelay
	for _, tl := range topoLinks {
		maxDelay = max(maxDelay, tl.Latency+routerDelay)
		i := int(next[tl.Dst])
		next[tl.Dst]++
		l := &links[i]
		*l = link{topo: tl, index: i, dst: n.routers[tl.Dst]}
		l.global = GlobalLink(topo, tl)
		n.links[i] = l
		n.routers[tl.Src].wire(tl.SrcPort, l)
	}
	n.wheel = make([][]flitTransit, maxDelay)
	nics := make([]NIC, topo.NumTerminals())
	n.nics = make([]*NIC, len(nics))
	for t := range nics {
		r, port := n.routers[topo.TerminalRouter(t)], topo.TerminalPort(t)
		nics[t] = NIC{term: t, router: r, port: port}
		n.nics[t] = &nics[t]
		r.waker[port] = int32(t)
	}
	n.linkActive, n.awake, n.nicBusy, n.nicBlocked = newBitset(len(links)), newBitset(len(routers)), newBitset(len(nics)), newBitset(len(nics))
	streams := make([]Stream, len(routers)+len(nics))
	for i := range streams {
		streams[i].init()
	}
	n.routerRNG, n.termRNG = streams[:len(routers)], streams[len(routers):]
	n.turnWords = (len(nics) + 63) / 64
	n.due, n.turnWheel, n.farTurns = make([]int64, len(nics)), make(bitset, turnSlots*n.turnWords), newBitset(len(nics))
	n.injectFn = func(spec PacketSpec) { n.generate(n.injectTerm, spec) }
	return n, n.Reset(cfg) // cannot fail: cfg is valid and of the network's own shape
}

// rewind empties s, zeroing it so that no pointer of the last run lives on.
func rewind[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// Reset rewinds the network to cycle 0 of a run of cfg, exactly as
// NewNetwork(cfg) would have built it. It is the only writer of initial run
// state (NewNetwork ends by calling it). Whatever watches the network —
// observers, telemetry, flight recorder, checker — is dropped.
// cfg must have the shape the network was built with (Topology value, VNets,
// VCsPerVNet, VCDepth): another is an error that leaves the network untouched.
func (n *Network) Reset(cfg Config) error {
	if err := cfg.setDefaults(); err != nil {
		return err
	}
	if was := n.cfg; cfg.Topology != was.Topology || cfg.VNets != was.VNets || cfg.VCsPerVNet != was.VCsPerVNet || cfg.VCDepth != was.VCDepth {
		return fmt.Errorf("sim: Reset of a %s network (%d vnets x %d VCs x %d flits) to another shape", was.Topology.Name(), was.VNets, was.VCsPerVNet, was.VCDepth)
	}
	n.cfg, n.now, n.stats = cfg, 0, Stats{}
	n.inNetwork, n.queuedPackets, n.saVisits = 0, 0, 0
	clear(n.linkActive)
	clear(n.awake)
	clear(n.nicBusy)
	clear(n.nicBlocked)
	clear(n.routerSets)
	n.resvOps, n.inFlightOps, n.ejects, n.dirtyVCs = rewind(n.resvOps), rewind(n.inFlightOps), rewind(n.ejects), rewind(n.dirtyVCs)
	n.observers, n.evMask, n.flight, n.tele, n.checker = nil, 0, nil, nil, nil
	n.pktPool = rewind(n.pktPool)
	for _, chunk := range n.pktChunks {
		n.freeChunk(chunk)
	}
	clear(n.extPkts)
	n.freeBlocks = nil
	for _, chunk := range n.blockChunks {
		n.freeBlockChunk(chunk)
	}
	for i := range n.wheel {
		n.wheel[i] = rewind(n.wheel[i])
	}
	n.wheelPos = 0
	for _, l := range n.links {
		for _, t := range l.sms {
			n.freeSM(t.sm)
		}
		*l = link{topo: l.topo, index: l.index, dst: l.dst, global: l.global, sms: rewind(l.sms)}
	}
	for t, nic := range n.nics {
		*nic = NIC{term: t, router: nic.router, port: nic.port}
		n.termRNG[t].Seed(EntitySeed(cfg.Seed, TerminalKey(t)))
		n.termRNG[t].ahead = 0
	}
	for i, r := range n.routers {
		// A scheme's Attach sets every router's agent and may recycle the
		// one left here; without a scheme no agent survives the rewind.
		if cfg.Scheme == nil {
			r.agent = nil
		}
		r.flitCount, r.spinningVCs, r.smPending = 0, 0, 0
		for p := range r.smSends {
			r.smSends[p] = rewind(r.smSends[p])
		}
		// A VC is rewritten as a literal naming only what survives, so a
		// field added later starts a run zeroed without being listed here.
		for s := range r.vcFlat {
			v := &r.vcFlat[s]
			*v = VC{router: r, port: v.port, index: v.index, slot: v.slot, outPort: -1,
				buf: v.buf[:0], reqs: v.reqs[:0]}
		}
		n.routerRNG[i].Seed(EntitySeed(cfg.Seed, RouterKey(i)))
		// Every router starts awake; phase 2 retires the idle ones.
		r.wake()
	}
	n.SetTraffic(cfg.Traffic)
	if cfg.Scheme != nil {
		cfg.Scheme.Attach(n)
	}
	for _, r := range n.routers {
		for s := range r.vcFlat {
			r.vcFlat[s].refreshSnap()
		}
	}
	return nil
}

// Config returns the simulation configuration, defaults resolved.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the simulated topology.
func (n *Network) Topology() topology.Topology { return n.cfg.Topology }

// Router returns router id.
func (n *Network) Router(id int) *Router { return n.routers[id] }

// NumRouters reports the router count.
func (n *Network) NumRouters() int { return len(n.routers) }

// NIC returns terminal t's interface.
func (n *Network) NIC(t int) *NIC { return n.nics[t] }

// Now reports the current cycle.
func (n *Network) Now() int64 { return n.now }

// Stats returns the accumulated statistics.
func (n *Network) Stats() *Stats { return &n.stats }

// RouterRNG returns router id's private stream.
func (n *Network) RouterRNG(id int) *rand.Rand { return &n.routerRNG[id].Rand }

// TerminalRNG returns terminal t's private stream, the one its traffic
// source draws on.
func (n *Network) TerminalRNG(t int) *Stream { return &n.termRNG[t] }

// InFlight reports packets currently inside the network (injection started,
// ejection not finished).
func (n *Network) InFlight() int { return n.inNetwork }

// QueuedPackets reports packets waiting in NIC source queues. The count
// is maintained incrementally at push/pop; the checker's audit recounts it.
func (n *Network) QueuedPackets() int { return n.queuedPackets }

// SetAgent installs a deadlock agent on a router (called by schemes).
func (n *Network) SetAgent(router int, a Agent) {
	r := n.routers[router]
	r.agent = a
	r.wake()
}

func (n *Network) measuring() bool { return n.now >= n.cfg.StatsStart }

// vcIndex is v's index among all the network's VCs, router-major.
func (n *Network) vcIndex(v *VC) int { return int(n.vcBase[v.router.ID]) + int(v.slot) }

// InjectPacket creates a packet and enqueues it at src's NIC, running the
// routing algorithm's source hook. Tests and examples use it directly;
// traffic goes through Config.Traffic.
func (n *Network) InjectPacket(src int, spec PacketSpec) *Packet {
	// The caller holds the pointer, past ejection if it likes: the packet
	// is never pooled, and it is the one that travels.
	id, q := n.enqueue(src, spec, true)
	p := new(Packet)
	n.fillPacket(p, src, id, &q)
	if n.extPkts == nil {
		n.extPkts = make(map[uint64]*Packet)
	}
	n.extPkts[id] = p
	return p
}

// generate enqueues a packet a traffic source asked for at src. Its
// record alone is queued; the NIC draws a pooled packet for it when it
// reaches the front.
func (n *Network) generate(src int, spec PacketSpec) { n.enqueue(src, spec, false) }

// packetID is the ID of terminal src's packet number seq. IDs interleave
// per-terminal sequence numbers: unique, nonzero, and independent of the
// generation order across terminals.
func (n *Network) packetID(src int, seq int64) uint64 {
	return uint64(seq)*uint64(len(n.nics)) + uint64(src) + 1
}

// enqueue queues the record of src's next packet, an InjectPacket one if
// ext, and returns the packet's ID and record. AtSource decides its
// intermediate on srcPkt, which carries only the fields a routing reads
// there.
func (n *Network) enqueue(src int, spec PacketSpec, ext bool) (uint64, queued) {
	if spec.Length <= 0 || spec.Length > MaxPktLen {
		panic(fmt.Sprintf("sim: packet length %d outside (0,%d]", spec.Length, MaxPktLen))
	}
	if spec.VNet < 0 || spec.VNet >= n.cfg.VNets {
		panic(fmt.Sprintf("sim: vnet %d out of range", spec.VNet))
	}
	nic := n.nics[src]
	id := n.packetID(src, nic.pktSeq)
	nic.pktSeq++
	p := &n.srcPkt
	*p = Packet{SrcRouter: nic.router.ID, DstRouter: n.cfg.Topology.TerminalRouter(spec.Dst),
		VNet: spec.VNet, Length: spec.Length, Intermediate: -1}
	n.cfg.Routing.AtSource(nic.router, p)
	q := queued{gen: uint32(n.now), dst: int32(spec.Dst), intermediate: int32(p.Intermediate),
		length: uint8(spec.Length), vnet: uint8(spec.VNet), ext: ext}
	nic.push(n, q)
	n.nicBusy.set(src)
	n.queuedPackets++
	if n.wants(EvPacketQueued) {
		n.emit(Event{Cycle: n.now, Kind: EvPacketQueued, Router: p.SrcRouter,
			Packet: id, Src: src, Dst: spec.Dst, VNet: spec.VNet, Len: spec.Length})
	}
	return id, q
}

// fillPacket makes p terminal src's packet id as its queued record q
// describes it, at or after the cycle q was queued in.
func (n *Network) fillPacket(p *Packet, src int, id uint64, q *queued) {
	dst, length := int(q.dst), int(q.length)
	*p = Packet{
		ID:           id,
		Src:          src,
		Dst:          dst,
		SrcRouter:    n.nics[src].router.ID,
		DstRouter:    n.cfg.Topology.TerminalRouter(dst),
		VNet:         int(q.vnet),
		Length:       length,
		GenCycle:     n.now - int64(uint32(n.now)-q.gen),
		Intermediate: int(q.intermediate),
		Checksum:     checksumFor(id, src, dst, length),
		pooled:       !q.ext,
	}
}

// allocPacket draws a packet from the free list, refilling it when empty.
func (n *Network) allocPacket() *Packet {
	if len(n.pktPool) == 0 {
		n.growPktPool()
	}
	k := len(n.pktPool) - 1
	p := n.pktPool[k]
	n.pktPool[k] = nil
	n.pktPool = n.pktPool[:k]
	return p
}

// pktChunk packets are allocated at a time: 64 x 144 B is 2.8 % short of an
// allocator size class.
const pktChunk = 64

// growPktPool refills the empty free list with one new chunk. Nothing is
// recorded per packet: the chunk is remembered for Reset.
func (n *Network) growPktPool() {
	chunk := make([]Packet, pktChunk)
	n.pktChunks = append(n.pktChunks, chunk)
	n.freeChunk(chunk)
}

// freeChunk puts every packet of chunk on the free list.
func (n *Network) freeChunk(chunk []Packet) {
	for i := range chunk {
		n.pktPool = append(n.pktPool, &chunk[i])
	}
}

// blockChunk blocks are carved at a time: 15 x 264 B is 3.3 % short of the
// 4 KB allocator size class.
const blockChunk = 15

// takeBlock draws a record block from the free list, carving a new chunk
// when it is empty.
func (n *Network) takeBlock() *recBlock {
	if n.freeBlocks == nil {
		chunk := make([]recBlock, blockChunk)
		n.blockChunks = append(n.blockChunks, chunk)
		n.freeBlockChunk(chunk)
	}
	b := n.freeBlocks
	n.freeBlocks, b.next = b.next, nil
	return b
}

// putBlock returns a drained record block to the free list.
func (n *Network) putBlock(b *recBlock) {
	b.next, n.freeBlocks = n.freeBlocks, b
}

// freeBlockChunk puts every block of chunk on the free list, the first on
// top, so that a fresh chunk is handed out in address order.
func (n *Network) freeBlockChunk(chunk []recBlock) {
	for i := len(chunk) - 1; i >= 0; i-- {
		n.putBlock(&chunk[i])
	}
}

// Step advances the simulation by one cycle: two phases, then the commit
// (see engine.go).
func (n *Network) Step() {
	n.phase1()
	n.phase2()
	n.commit()
}

// GlobalLink reports whether l is a dragonfly global channel of topo.
func GlobalLink(topo topology.Topology, l topology.Link) bool {
	d, ok := topo.(*topology.Dragonfly)
	return ok && d.Group(l.Src) != d.Group(l.Dst)
}

// Run advances the simulation by cycles steps.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain disables traffic and steps until the network is empty (all queued
// and in-flight packets ejected) or maxCycles elapse. It reports whether
// the network fully drained — the strongest liveness check available.
//
// A ClosedLoopTraffic source stays attached in quiesce mode instead of
// being detached: new requests stop, pending replies keep flowing, and the
// drain additionally waits for the request window to empty (zero
// in-window residue). Steps after a drain generate what they would have if
// the source had simply not been called during it.
func (n *Network) Drain(maxCycles int64) bool {
	drained, _ := n.DrainContext(context.Background(), maxCycles)
	return drained
}

// drainPoll is how many cycles DrainContext steps between two polls of its
// context: the slice runner.Cycles polls the traffic phase at.
const drainPoll = 64

// DrainContext is Drain that also stops, undrained, once ctx is done: it
// polls ctx every drainPoll cycles and then returns ctx.Err(). A drain that
// ends first steps exactly as Drain, cycle for cycle.
func (n *Network) DrainContext(ctx context.Context, maxCycles int64) (bool, error) {
	cl := n.closed
	if cl != nil {
		cl.Quiesce(true)
		defer func() {
			cl.Quiesce(false)
			// A quiesced client asks for no turn: every terminal takes one now.
			n.turnAll()
		}()
	} else if saved := n.cfg.Traffic; saved != nil {
		n.handBack()
		n.cfg.Traffic = nil
		defer func() {
			n.cfg.Traffic = saved
			n.placeTurns()
		}()
	}
	empty := func() bool {
		return n.inNetwork == 0 && n.queuedPackets == 0 && (cl == nil || cl.InWindow() == 0)
	}
	for i := int64(0); i < maxCycles; i++ {
		if empty() {
			return true, nil
		}
		if i%drainPoll == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		n.Step()
	}
	return empty(), nil
}

// LinkUtilisation aggregates the per-link busy accounting over the
// measurement window.
func (n *Network) LinkUtilisation() LinkUtilisation {
	var u LinkUtilisation
	if n.stats.MeasuredCycles == 0 || len(n.links) == 0 {
		return u
	}
	total := float64(n.stats.MeasuredCycles) * float64(len(n.links))
	var flit float64
	var sm [4]float64
	for _, l := range n.links {
		flit += float64(l.flitCycles)
		for k := 0; k < int(numSMKinds); k++ {
			sm[k] += float64(l.smCycles[k])
		}
	}
	u.Flit = flit / total
	for k := range sm {
		u.SM[k] = sm[k] / total
		u.SMAll += u.SM[k]
	}
	u.Idle = 1 - u.Flit - u.SMAll
	return u
}

// SetTraffic replaces the traffic generator (nil disables generation;
// queued and in-flight packets are unaffected).
func (n *Network) SetTraffic(g TrafficGen) {
	n.handBack()
	n.cfg.Traffic = g
	n.closed, _ = g.(ClosedLoopTraffic)
	// A source's first turn at every terminal is the cycle it is attached.
	n.turnAll()
}
