package sim

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// This file is the simulator-native observability layer: the event
// vocabulary and the network's observer list (the one fan-out every
// event goes through), an epoch-windowed time-series sampler, and a
// log₂-bucketed latency histogram. Every emission site tests the
// observers' union kind mask before it builds an Event and every sampler
// hook is a nil-check on Network.tele, so a simulation nobody watches
// pays nothing — the 0-allocs/cycle budget in internal/bench and the
// byte-identical exp goldens both hold with the layer compiled in.
//
// Events carry plain values only (IDs, port numbers, kind names), never
// pointers into engine state, so probes may retain them indefinitely
// without interfering with the packet/SM pools.

// EventKind enumerates the discrete simulator occurrences delivered to a
// Probe.
type EventKind uint8

// Event kinds. Flit-level events fire once per flit and dominate event
// volume at load; observers that only care about lifecycle and SPIN
// activity leave them out of their mask (DefaultMask does).
const (
	EvPacketQueued   EventKind = iota + 1 // packet created at a source queue
	EvPacketInject                        // head flit entered the network
	EvPacketEject                         // tail flit left the network (Arg = latency)
	EvFlitInject                          // one flit entered the network
	EvFlitEject                           // one flit left the network
	EvSMSend                              // SM won link arbitration (Arg = spin cycle)
	EvSMDrop                              // SM dropped: contention loss or spin-claimed port
	EvSMDeliver                           // SM handed to the destination agent
	EvVCFreeze                            // VC frozen by a recovery agent
	EvVCUnfreeze                          // freeze lifted (kill_move processing)
	EvSpinStart                           // VC began force-transmitting a spin
	EvSpinEnd                             // spinning resident's tail dequeued
	EvOracleDeadlock                      // deadlock oracle saw >= 1 deadlocked VC (Arg = count)
	numEventKinds
)

// eventKindNames is the JSON vocabulary; artifacts and traces use names,
// not ordinals, so recorded events survive kind renumbering.
var eventKindNames = [numEventKinds]string{
	EvPacketQueued:   "packet_queued",
	EvPacketInject:   "packet_inject",
	EvPacketEject:    "packet_eject",
	EvFlitInject:     "flit_inject",
	EvFlitEject:      "flit_eject",
	EvSMSend:         "sm_send",
	EvSMDrop:         "sm_drop",
	EvSMDeliver:      "sm_deliver",
	EvVCFreeze:       "vc_freeze",
	EvVCUnfreeze:     "vc_unfreeze",
	EvSpinStart:      "spin_start",
	EvSpinEnd:        "spin_end",
	EvOracleDeadlock: "oracle_deadlock",
}

// String returns the event kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name (artifact replay).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown event kind %q", s)
}

// Event is one discrete simulator occurrence. All fields are plain
// values; which are meaningful depends on Kind (packet events carry
// Packet/Src/Dst/VNet/Len, SM events carry SM/Tag, VC events carry
// Port/VC).
type Event struct {
	Cycle  int64     `json:"cycle"`
	Kind   EventKind `json:"kind"`
	Router int       `json:"router"`
	Port   int       `json:"port,omitempty"`
	VC     int       `json:"vc,omitempty"`
	Packet uint64    `json:"packet,omitempty"` // packet ID
	Src    int       `json:"src,omitempty"`    // source terminal
	Dst    int       `json:"dst,omitempty"`    // destination terminal
	VNet   int       `json:"vnet,omitempty"`
	Len    int       `json:"len,omitempty"` // packet length in flits (packet_* events)
	SM     string    `json:"sm,omitempty"`  // SM kind name (sm_* events)
	Tag    uint64    `json:"tag,omitempty"` // recovery-attempt tag (sm_* events)
	Arg    int64     `json:"arg,omitempty"` // kind-specific: latency, spin cycle, deadlock count
}

// Probe receives telemetry events. Implementations must not block: Event
// is called from inside Network.Step.
type Probe interface {
	Event(Event)
}

// ProbeFunc adapts a function to the Probe interface.
type ProbeFunc func(Event)

// Event implements Probe.
func (f ProbeFunc) Event(e Event) { f(e) }

// KindMask selects event kinds: bit k set means kind k is wanted.
type KindMask uint64

// MaskOf returns the mask selecting exactly the given kinds.
func MaskOf(kinds ...EventKind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether kind k is selected.
func (m KindMask) Has(k EventKind) bool { return m&(1<<k) != 0 }

const (
	// AllEvents selects every event kind.
	AllEvents = ^KindMask(0)
	// DefaultMask keeps lifecycle and SPIN events but drops the per-flit
	// kinds, which dominate event volume at load (one event per flit per
	// endpoint) while adding little over the packet-level events.
	DefaultMask = AllEvents &^ (1<<EvFlitInject | 1<<EvFlitEject)
	// SpinEvents selects what the recovery machinery does and nothing
	// per-packet: the flight recorder's mask.
	SpinEvents KindMask = 1<<EvSMSend | 1<<EvSMDrop | 1<<EvSMDeliver |
		1<<EvVCFreeze | 1<<EvVCUnfreeze | 1<<EvSpinStart | 1<<EvSpinEnd |
		1<<EvOracleDeadlock
)

// observer is one entry of the network's listener list.
type observer struct {
	mask  KindMask
	probe Probe
}

// AddObserver adds p to the network's observer list: from the next cycle
// on it receives every event whose kind is in mask, in emission order.
// This list is the only event fan-out; call it between Steps, not during
// one.
func (n *Network) AddObserver(mask KindMask, p Probe) {
	n.observers = append(n.observers, observer{mask, p})
	n.evMask |= mask
}

// wants reports whether any observer listens for kind k. Emission sites
// test it before building the Event.
func (n *Network) wants(k EventKind) bool { return n.evMask.Has(k) }

// emit delivers e to every observer whose mask selects its kind.
func (n *Network) emit(e Event) {
	for i := range n.observers {
		if o := &n.observers[i]; o.mask.Has(e.Kind) {
			o.probe.Event(e)
		}
	}
}

// TimeSeriesSchema versions the windowed time-series encoding.
const TimeSeriesSchema = "spin-timeseries-v1"

// WindowSample is one closed epoch window of the time-series sampler.
type WindowSample struct {
	// Start is the first cycle of the window; Cycles its width (equal to
	// the configured window except for a flushed trailing partial).
	Start  int64 `json:"start"`
	Cycles int64 `json:"cycles"`

	InjectedFlits int64 `json:"injected_flits"`
	EjectedFlits  int64 `json:"ejected_flits"`
	// QueuedPackets and InFlight are instantaneous counts at window close.
	QueuedPackets int `json:"queued_packets"`
	InFlight      int `json:"in_flight"`
	// LinkBusy and SMBusy are the fraction of link-cycles spent carrying
	// flits / special messages during the window.
	LinkBusy float64 `json:"link_busy"`
	SMBusy   float64 `json:"sm_busy"`
	// VCOccupancy is the per-vnet fraction of buffer slots holding flits
	// at window close.
	VCOccupancy []float64 `json:"vc_occupancy"`
	// Spins counts synchronized movements initiated during the window.
	Spins int64 `json:"spins"`
}

// TimeSeries is the sampler's output: one sample per closed window.
type TimeSeries struct {
	Schema  string         `json:"schema"`
	Window  int64          `json:"window"`
	Samples []WindowSample `json:"samples"`
}

// LatencyHist is a log₂-bucketed histogram of packet latencies over the
// measurement window. Bucket i counts values v with bits.Len64(v) == i,
// i.e. v in [2^(i-1), 2^i); bucket 0 holds non-positive values.
type LatencyHist struct {
	counts [65]int64
	count  int64
	sum    int64
	max    int64
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *LatencyHist) Count() int64 { return h.count }

// Sum reports the sum of observed values.
func (h *LatencyHist) Sum() int64 { return h.sum }

// Max reports the largest observed value.
func (h *LatencyHist) Max() int64 { return h.max }

// bucketBounds reports the value range [lo, hi] bucket i covers.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << uint(i-1)
	hi = lo*2 - 1
	return lo, hi
}

// Quantile estimates the q-quantile (0 < q <= 1) by cumulating bucket
// counts and interpolating linearly inside the selected bucket. The
// estimate always lies within the log₂ bucket containing the exact
// rank-ceil(q·count) order statistic.
func (h *LatencyHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketBounds(i)
		frac := float64(rank-cum) / float64(c)
		est := float64(lo) + frac*float64(hi-lo)
		// Interpolation inside the histogram's last occupied bucket can
		// overshoot the largest value actually observed; the true order
		// statistic never does.
		if est > float64(h.max) {
			est = float64(h.max)
		}
		return est
	}
	return float64(h.max)
}

// LatencySummary is the histogram condensed to headline percentiles,
// reported alongside Stats.AvgLatency.
type LatencySummary struct {
	Count int64   `json:"count"`
	Avg   float64 `json:"avg"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary extracts the headline percentiles.
func (h *LatencyHist) Summary() LatencySummary {
	s := LatencySummary{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Avg = float64(h.sum) / float64(h.count)
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// TelemetryOptions configures the sampling layer attached by
// Network.AttachTelemetry (events are not its business: see AddObserver).
type TelemetryOptions struct {
	// Window, when > 0, enables the epoch-windowed time-series sampler
	// with that window width in cycles.
	Window int64
	// Hist enables the measurement-window latency histogram.
	Hist bool
}

// Telemetry is what the network computes about itself while it runs:
// the latency histogram, the window sampler and its link busy counters.
// Obtain one with Network.AttachTelemetry; the network pays only
// nil-checks when none is attached.
type Telemetry struct {
	net  *Network
	opt  TelemetryOptions
	hist *LatencyHist

	// Window accumulators. Flit/spin deltas come from the unconditional
	// Stats counters; link busy cycles are telemetry-owned because the
	// per-link counters in Stats only run inside the measurement window.
	winStart  int64
	baseInjF  int64
	baseEjF   int64
	baseSpins int64
	busyFlit  int64
	busySM    int64
	samples   []WindowSample
}

// AttachTelemetry installs the sampling layer (replacing any previous
// one; observers and the flight recorder are untouched). It may be
// attached at any point; windows start at the current cycle.
func (n *Network) AttachTelemetry(opt TelemetryOptions) *Telemetry {
	t := &Telemetry{net: n, opt: opt, winStart: n.now}
	if opt.Hist {
		t.hist = &LatencyHist{}
	}
	st := &n.stats
	t.baseInjF, t.baseEjF, t.baseSpins = st.InjectedFlits, st.EjectedFlits, st.Spins
	n.tele = t
	return t
}

// Telemetry returns the attached observability layer, or nil.
func (n *Network) Telemetry() *Telemetry { return n.tele }

// Latency returns the measurement-window latency histogram (nil unless
// TelemetryOptions.Hist was set).
func (t *Telemetry) Latency() *LatencyHist { return t.hist }

// LatencySummary condenses the histogram (zero value without Hist).
func (t *Telemetry) LatencySummary() LatencySummary {
	if t.hist == nil {
		return LatencySummary{}
	}
	return t.hist.Summary()
}

// onEject accounts a fully ejected packet. measured mirrors the Stats
// gating: only packets generated inside the measurement window feed the
// histogram, so hist totals equal LatencySum/EjectedMeasured exactly.
func (t *Telemetry) onEject(lat int64, measured bool) {
	if t.hist != nil && measured {
		t.hist.Observe(lat)
	}
}

// onCycle runs at the end of Network.Step (after the cycle counters
// advanced); it closes the current window at each epoch boundary.
func (t *Telemetry) onCycle() {
	if t.opt.Window <= 0 {
		return
	}
	if t.net.now-t.winStart >= t.opt.Window {
		t.closeWindow()
	}
}

// closeWindow snapshots one sample and resets the accumulators.
func (t *Telemetry) closeWindow() {
	n := t.net
	st := &n.stats
	s := WindowSample{
		Start:         t.winStart,
		Cycles:        n.now - t.winStart,
		InjectedFlits: st.InjectedFlits - t.baseInjF,
		EjectedFlits:  st.EjectedFlits - t.baseEjF,
		QueuedPackets: n.queuedPackets,
		InFlight:      n.inNetwork,
		Spins:         st.Spins - t.baseSpins,
		VCOccupancy:   t.vcOccupancy(),
	}
	if links := int64(len(n.links)); links > 0 && s.Cycles > 0 {
		total := float64(links * s.Cycles)
		s.LinkBusy = float64(t.busyFlit) / total
		s.SMBusy = float64(t.busySM) / total
	}
	t.samples = append(t.samples, s)
	t.winStart = n.now
	t.baseInjF, t.baseEjF, t.baseSpins = st.InjectedFlits, st.EjectedFlits, st.Spins
	t.busyFlit, t.busySM = 0, 0
}

// vcOccupancy scans every input VC once (only at window close) and
// reports the per-vnet fraction of buffer slots holding flits.
func (t *Telemetry) vcOccupancy() []float64 {
	n := t.net
	occ := make([]float64, n.cfg.VNets)
	slots := make([]int64, n.cfg.VNets)
	for _, r := range n.routers {
		for s := range r.vcFlat {
			v := &r.vcFlat[s]
			occ[v.VNet()] += float64(len(v.buf))
			slots[v.VNet()] += int64(n.cfg.VCDepth)
		}
	}
	for i := range occ {
		if slots[i] > 0 {
			occ[i] /= float64(slots[i])
		}
	}
	return occ
}

// Flush closes a partially filled trailing window (if any cycles have
// elapsed since the last boundary). Call once at end of run before
// reading TimeSeries.
func (t *Telemetry) Flush() {
	if t.opt.Window > 0 && t.net.now > t.winStart {
		t.closeWindow()
	}
}

// TimeSeries returns the closed windows collected so far (nil without a
// configured window). The samples slice is shared; callers must not
// mutate it.
func (t *Telemetry) TimeSeries() *TimeSeries {
	if t.opt.Window <= 0 {
		return nil
	}
	return &TimeSeries{Schema: TimeSeriesSchema, Window: t.opt.Window, Samples: t.samples}
}
