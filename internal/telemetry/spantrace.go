package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/otrace"
)

// Span-tree export: the serving layer's request spans rendered as the
// same Chrome trace-event JSON WriteChromeTrace emits for simulator
// events, so a request timeline loads in one Perfetto window. Each node
// name a span carries (SpanData.Node) becomes one process (pid, named by
// a process_name meta event); spans of one node share tid 1 and nest by
// time containment, which is exactly how "X" complete events stack.

// spanPidBase keeps span processes clear of the simulator trace's fixed
// pids (1 = packets, 2 = routers), so a span trace and a simulator
// trace can even be concatenated into one document.
const spanPidBase = 10

// WriteSpanTrace renders a set of otrace spans — typically one trace as
// GET /v1/trace/<id> returns it — as Chrome trace-event JSON. Wall-clock
// nanoseconds become microsecond timestamps on a shared axis, so spans
// of different nodes line up as well as their clocks do.
func WriteSpanTrace(w io.Writer, spans []otrace.SpanData) error {
	sorted := append([]otrace.SpanData(nil), spans...)
	otrace.SortSpans(sorted)

	// One pid per node, in first-seen (start-time) order.
	pids := map[string]int{}
	var nodes []string
	for _, s := range sorted {
		node := s.Node
		if node == "" {
			node = "unknown"
		}
		if _, ok := pids[node]; !ok {
			pids[node] = spanPidBase + len(nodes)
			nodes = append(nodes, node)
		}
	}
	sort.Strings(nodes)

	doc := traceDoc{TraceEvents: make([]traceEvent, 0, len(sorted)+len(nodes))}
	for _, node := range nodes {
		doc.TraceEvents = append(doc.TraceEvents, metaEvent(pids[node], "process_name", "node "+node))
	}
	for _, s := range sorted {
		node := s.Node
		if node == "" {
			node = "unknown"
		}
		args := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
		}
		if s.Parent != "" {
			args["parent_span_id"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		dur := s.Dur / 1000
		if dur < 1 {
			dur = 1 // sub-microsecond spans still need visible extent
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   s.Start / 1000,
			Dur:  dur,
			Pid:  pids[node],
			Tid:  1,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
