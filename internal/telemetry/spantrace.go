package telemetry

import (
	"encoding/json"
	"io"

	"repro/internal/otrace"
)

// Span-tree export: the serving layer's request spans rendered as the
// same Chrome trace-event JSON WriteChromeTrace emits for simulator
// events, so a request timeline loads in one Perfetto window. Every span
// lands in one process (pid spanPid, named by a process_name meta event)
// on tid 1, and spans nest by time containment, which is exactly how "X"
// complete events stack.

// spanPid keeps the span process clear of the simulator trace's fixed
// pids (1 = packets, 2 = routers), so a span trace and a simulator trace
// can even be concatenated into one document.
const spanPid = 10

// WriteSpanTrace renders a set of otrace spans — typically one trace as
// GET /v1/trace/<id> returns it — as Chrome trace-event JSON. Wall-clock
// nanoseconds become microsecond timestamps.
func WriteSpanTrace(w io.Writer, spans []otrace.SpanData) error {
	sorted := append([]otrace.SpanData(nil), spans...)
	otrace.SortSpans(sorted)

	doc := traceDoc{TraceEvents: make([]traceEvent, 0, len(sorted)+1)}
	doc.TraceEvents = append(doc.TraceEvents, metaEvent(spanPid, "process_name", "spind"))
	for _, s := range sorted {
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
			Pid:  spanPid,
			Tid:  1,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
