package serve

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/otrace"
	"repro/internal/telemetry"
)

// This file is the trace-retrieval surface: GET /v1/trace/<id> returns
// a trace's spans from the daemon's bounded ring. The same span set
// renders two ways: plain JSON (the default) or Chrome trace-event JSON
// (?format=perfetto) that loads directly in Perfetto.

// traceResponse is the JSON envelope of /v1/trace/<id> and of the
// ?trace=server echo on /v1/simulate.
type traceResponse struct {
	TraceID string            `json:"trace_id"`
	Spans   []otrace.SpanData `json:"spans"`
	// Result carries the simulation response when the envelope wraps a
	// live request (?trace=server); absent on after-the-fact fetches.
	Result json.RawMessage `json:"result,omitempty"`
}

// handleTrace is GET /v1/trace/<id>. ?format=perfetto renders the
// Chrome trace-event form.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, "GET a trace by ID", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if !otrace.ValidTraceID(id) {
		httpError(w, "bad trace ID: want 32 lowercase hex chars", http.StatusBadRequest)
		return
	}
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		httpError(w, "unknown trace (expired from the ring, or never sampled here)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "perfetto" {
		telemetry.WriteSpanTrace(w, spans)
		return
	}
	json.NewEncoder(w).Encode(traceResponse{TraceID: id, Spans: spans})
}

// wrapServerTrace wraps response bytes in the trace envelope: the spans
// the daemon has recorded for the request's trace plus the live tree of
// the still-open root span.
func (s *Server) wrapServerTrace(span *otrace.Span, body []byte) []byte {
	spans := append(s.tracer.Trace(span.TraceID()), span.Tree()...)
	otrace.SortSpans(spans)
	out, err := json.Marshal(traceResponse{TraceID: span.TraceID(), Spans: spans, Result: body})
	if err != nil {
		return body
	}
	return out
}
