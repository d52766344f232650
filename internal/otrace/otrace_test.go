package otrace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "")
	tp := root.Traceparent()
	tid, sid, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", tp)
	}
	if tid != root.TraceID() || sid != root.SpanID() {
		t.Fatalf("parsed (%s,%s), want (%s,%s)", tid, sid, root.TraceID(), root.SpanID())
	}
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q not in 00-...-01 form", tp)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // all-zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("a", 16) + "-01", // uppercase
		"00_" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01", // bad separator
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-0",  // short
	}
	for _, tp := range bad {
		if _, _, ok := ParseTraceparent(tp); ok {
			t.Errorf("ParseTraceparent(%q) accepted", tp)
		}
	}
}

func TestStartRequestAdoptsRemoteTrace(t *testing.T) {
	a := NewTracer()
	b := NewTracer()
	root := a.StartRequest("request", "")
	child := root.StartChild("call")
	remote := b.StartRequest("request", child.Traceparent())
	if remote.TraceID() != root.TraceID() {
		t.Fatalf("remote trace %s, want adopted %s", remote.TraceID(), root.TraceID())
	}
	remote.End()
	child.End()
	root.End()
	spans := b.Trace(root.TraceID())
	if len(spans) != 1 {
		t.Fatalf("node b recorded %d spans, want 1", len(spans))
	}
	if spans[0].Parent != child.SpanID() {
		t.Fatalf("remote root parent %s, want the calling child %s", spans[0].Parent, child.SpanID())
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "")
	c1 := root.StartChild("decode")
	c1.End()
	c2 := root.StartChild("cache")
	c2.SetAttr("outcome", "miss")
	g := c2.StartChild("compute")
	g.End()
	c2.End()
	root.End()
	spans := tr.Trace(root.TraceID())
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["decode"].Parent != root.SpanID() || byName["cache"].Parent != root.SpanID() {
		t.Error("children do not parent to the root")
	}
	if byName["compute"].Parent != byName["cache"].SpanID {
		t.Error("grandchild does not parent to its child")
	}
	if byName["cache"].Attrs["outcome"] != "miss" {
		t.Errorf("cache attrs = %v, want outcome=miss", byName["cache"].Attrs)
	}
	for _, s := range spans {
		if s.Dur < 0 {
			t.Errorf("span %s negative duration %d", s.Name, s.Dur)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if c := s.StartChild("x"); c != nil {
		t.Fatal("nil span produced a non-nil child")
	}
	if s.TraceID() != "" || s.SpanID() != "" || s.Traceparent() != "" {
		t.Fatal("nil span reports non-empty IDs")
	}
	if _, ok := s.Snapshot(); ok {
		t.Fatal("nil span snapshot reported ok")
	}
	var tr *Tracer
	if sp := tr.StartRequest("r", ""); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if tr.Trace("x") != nil || tr.Len() != 0 {
		t.Fatal("nil tracer reports traces")
	}
}

func TestTraceEviction(t *testing.T) {
	tr := NewTracer()
	tr.capTrace = 3
	var ids []string
	for i := 0; i < 5; i++ {
		s := tr.StartRequest("request", "")
		s.End()
		ids = append(ids, s.TraceID())
	}
	if tr.Len() != 3 {
		t.Fatalf("tracer retains %d traces, want 3", tr.Len())
	}
	for _, old := range ids[:2] {
		if tr.Trace(old) != nil {
			t.Errorf("evicted trace %s still present", old)
		}
	}
	for _, recent := range ids[2:] {
		if tr.Trace(recent) == nil {
			t.Errorf("recent trace %s missing", recent)
		}
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := NewTracer()
	tr.capSpans = 4
	root := tr.StartRequest("request", "")
	for i := 0; i < 10; i++ {
		root.StartChild(fmt.Sprintf("c%d", i)).End()
	}
	root.End()
	if n := len(tr.Trace(root.TraceID())); n != 4 {
		t.Fatalf("trace holds %d spans, want capped 4", n)
	}
	if d := tr.Dropped(root.TraceID()); d != 7 {
		t.Fatalf("dropped %d spans, want 7 (6 children + root)", d)
	}
}

func TestOnEndCallback(t *testing.T) {
	tr := NewTracer()
	var mu sync.Mutex
	got := map[string]int{}
	tr.OnEnd(func(d SpanData) {
		mu.Lock()
		got[d.Name]++
		mu.Unlock()
	})
	root := tr.StartRequest("request", "")
	root.StartChild("epoch").End()
	root.End()
	if got["epoch"] != 1 || got["request"] != 1 {
		t.Fatalf("OnEnd observed %v, want epoch:1 request:1", got)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "")
	root.End()
	root.End()
	if n := len(tr.Trace(root.TraceID())); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild(fmt.Sprintf("c%d", i))
			c.SetAttr("i", fmt.Sprint(i))
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if n := len(tr.Trace(root.TraceID())); n != 17 {
		t.Fatalf("recorded %d spans, want 17", n)
	}
}

func TestValidTraceID(t *testing.T) {
	tr := NewTracer()
	id := tr.StartRequest("r", "").TraceID()
	if !ValidTraceID(id) {
		t.Fatalf("minted trace ID %q fails validation", id)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("G", 32)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) accepted", bad)
		}
	}
}
