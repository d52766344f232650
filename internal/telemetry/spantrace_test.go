package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/otrace"
)

// TestWriteSpanTraceOneProcess: every span of a trace, whichever tracer
// recorded it, lands in the one named span process.
func TestWriteSpanTraceOneProcess(t *testing.T) {
	a := otrace.NewTracer()
	b := otrace.NewTracer()
	root := a.StartRequest("request", "", time.Now())
	call := root.StartChild("call")
	remote := b.StartRequest("request", string(call.AppendTraceparent(nil)), time.Now())
	remote.StartChild("compute").End()
	remote.End()
	call.End()
	root.End()

	merged := append(a.Trace(root.TraceID()), b.Trace(root.TraceID())...)
	if len(merged) != 4 {
		t.Fatalf("merged %d spans, want 4", len(merged))
	}
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, merged); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span trace is not valid JSON: %v", err)
	}

	procs := map[int]string{}
	spans := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			procs[e.Pid], _ = e.Args["name"].(string)
		case "X":
			spans++
			if _, ok := procs[e.Pid]; !ok || len(procs) != 1 {
				t.Errorf("span %s on pid %d, processes %v: want one named process", e.Name, e.Pid, procs)
			}
			if e.Dur < 1 {
				t.Errorf("span %s has zero-extent dur %d", e.Name, e.Dur)
			}
			if e.Args["trace_id"] != root.TraceID() {
				t.Errorf("span %s trace_id %v, want %s", e.Name, e.Args["trace_id"], root.TraceID())
			}
		}
	}
	if spans != 4 || len(procs) != 1 {
		t.Fatalf("%d spans in processes %v, want 4 in one", spans, procs)
	}
}

func TestWriteSpanTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty span trace is not valid JSON")
	}
}
