// Package telemetry renders what the simulator and the daemon observed
// as Chrome/Perfetto trace-event JSON: sim events plus the windowed
// time-series (WriteChromeTrace) and otrace spans (WriteSpanTrace). The
// observing itself — the observer list, the event ring, the sampler and
// the histogram — lives in internal/sim, inside the hot path.
package telemetry

import (
	"encoding/json"
	"io"

	"repro/internal/sim"
)

// Chrome trace-event export: one JSON document loadable in Perfetto or
// chrome://tracing. Simulation cycles map to microseconds (1 cycle =
// 1 µs). Packet lifecycles render as async spans (queued → ejected, one
// row per source terminal under the "packets" process); SM, VC and
// oracle events render as instant markers on the router rows of the
// "routers" process; time-series windows render as counter tracks.

const (
	tracePidPackets = 1
	tracePidRouters = 2
)

// traceEvent is one entry of the trace-event JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"` // "X" complete events only
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    uint64         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceDoc is the top-level trace-event JSON object form.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// WriteChromeTrace renders events (and, when non-nil, the windowed
// time-series as counter tracks) as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []sim.Event, ts *sim.TimeSeries) error {
	doc := traceDoc{TraceEvents: make([]traceEvent, 0, len(events)+8)}
	doc.TraceEvents = append(doc.TraceEvents,
		metaEvent(tracePidPackets, "process_name", "packets (tid = source terminal)"),
		metaEvent(tracePidRouters, "process_name", "routers (tid = router)"),
	)
	for _, e := range events {
		doc.TraceEvents = append(doc.TraceEvents, convertEvent(e))
	}
	if ts != nil {
		for _, s := range ts.Samples {
			end := s.Start + s.Cycles
			doc.TraceEvents = append(doc.TraceEvents,
				counterEvent("queued_packets", end, float64(s.QueuedPackets)),
				counterEvent("in_flight_packets", end, float64(s.InFlight)),
				counterEvent("link_busy_fraction", end, s.LinkBusy),
				counterEvent("spins_per_window", end, float64(s.Spins)),
			)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func metaEvent(pid int, name, value string) traceEvent {
	return traceEvent{Name: name, Ph: "M", Pid: pid, Args: map[string]any{"name": value}}
}

func counterEvent(name string, ts int64, v float64) traceEvent {
	return traceEvent{Name: name, Cat: "timeseries", Ph: "C", Ts: ts,
		Pid: tracePidPackets, Args: map[string]any{"value": v}}
}

// convertEvent maps one simulator event onto a trace-event entry.
func convertEvent(e sim.Event) traceEvent {
	switch e.Kind {
	case sim.EvPacketQueued:
		return traceEvent{Name: "pkt", Cat: "packet", Ph: "b", Ts: e.Cycle,
			Pid: tracePidPackets, Tid: e.Src, ID: e.Packet,
			Args: map[string]any{"src": e.Src, "dst": e.Dst, "vnet": e.VNet}}
	case sim.EvPacketInject:
		return traceEvent{Name: "pkt", Cat: "packet", Ph: "n", Ts: e.Cycle,
			Pid: tracePidPackets, Tid: e.Src, ID: e.Packet,
			Args: map[string]any{"stage": "inject", "router": e.Router}}
	case sim.EvPacketEject:
		return traceEvent{Name: "pkt", Cat: "packet", Ph: "e", Ts: e.Cycle,
			Pid: tracePidPackets, Tid: e.Src, ID: e.Packet,
			Args: map[string]any{"latency": e.Arg, "router": e.Router}}
	case sim.EvSMSend, sim.EvSMDrop, sim.EvSMDeliver:
		return traceEvent{Name: e.Kind.String() + ":" + e.SM, Cat: "sm", Ph: "i",
			Ts: e.Cycle, Pid: tracePidRouters, Tid: e.Router, Scope: "t",
			Args: map[string]any{"port": e.Port, "sender": e.Src, "tag": e.Tag, "spin_cycle": e.Arg}}
	case sim.EvVCFreeze, sim.EvVCUnfreeze, sim.EvSpinStart, sim.EvSpinEnd:
		return traceEvent{Name: e.Kind.String(), Cat: "vc", Ph: "i",
			Ts: e.Cycle, Pid: tracePidRouters, Tid: e.Router, Scope: "t",
			Args: map[string]any{"port": e.Port, "vc": e.VC}}
	case sim.EvOracleDeadlock:
		return traceEvent{Name: "oracle_deadlock", Cat: "oracle", Ph: "i",
			Ts: e.Cycle, Pid: tracePidRouters, Tid: e.Router, Scope: "t",
			Args: map[string]any{"deadlocked_vcs": e.Arg}}
	default:
		// Flit-level (or future) kinds: generic instant marker so nothing
		// recorded is silently dropped from the export.
		return traceEvent{Name: e.Kind.String(), Cat: "flit", Ph: "i",
			Ts: e.Cycle, Pid: tracePidRouters, Tid: e.Router, Scope: "t",
			Args: map[string]any{"packet": e.Packet, "vnet": e.VNet}}
	}
}
