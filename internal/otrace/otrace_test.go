package otrace

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "", time.Now())
	tp := string(root.AppendTraceparent(nil))
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
		"ff-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01", // version ff is invalid
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-zz", // non-hex flags
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-0F", // uppercase flags
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
	root := a.StartRequest("request", "", time.Now())
	child := root.StartChild("call")
	remote := b.StartRequest("request", string(child.AppendTraceparent(nil)), time.Now())
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
	root := tr.StartRequest("request", "", time.Now())
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
	if s.TraceID() != "" || s.SpanID() != "" || string(s.AppendTraceparent(nil)) != "" {
		t.Fatal("nil span reports non-empty IDs")
	}
	if _, ok := s.Snapshot(); ok {
		t.Fatal("nil span snapshot reported ok")
	}
	var tr *Tracer
	if sp := tr.StartRequest("r", "", time.Now()); sp != nil {
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
		s := tr.StartRequest("request", "", time.Now())
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
	root := tr.StartRequest("request", "", time.Now())
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
	got := map[string]time.Duration{}
	tr.OnEnd(func(name string, dur time.Duration) {
		mu.Lock()
		got[name] += dur
		mu.Unlock()
	})
	root := tr.StartRequest("request", "", time.Now())
	root.StartChild("epoch").End()
	root.End()
	if len(got) != 2 {
		t.Fatalf("OnEnd observed %v, want epoch and request", got)
	}
	for _, d := range tr.Trace(root.TraceID()) {
		if got[d.Name] != time.Duration(d.Dur) {
			t.Errorf("OnEnd saw %s last %v, the trace records %v", d.Name, got[d.Name], time.Duration(d.Dur))
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "", time.Now())
	root.End()
	root.End()
	if n := len(tr.Trace(root.TraceID())); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "", time.Now())
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
	id := tr.StartRequest("r", "", time.Now()).TraceID()
	if !ValidTraceID(id) {
		t.Fatalf("minted trace ID %q fails validation", id)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("G", 32)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) accepted", bad)
		}
	}
}

// TestParseTraceparentAcceptsFutureVersions: any lowercase-hex version but
// ff, and any lowercase-hex flags, parse (W3C trace-context).
func TestParseTraceparentAcceptsFutureVersions(t *testing.T) {
	tid, sid := strings.Repeat("a", 32), strings.Repeat("b", 16)
	for _, tp := range []string{"00-" + tid + "-" + sid + "-00", "01-" + tid + "-" + sid + "-ff", "fe-" + tid + "-" + sid + "-01"} {
		if gotT, gotS, ok := ParseTraceparent(tp); !ok || gotT != tid || gotS != sid {
			t.Errorf("ParseTraceparent(%q) = %q, %q, %v", tp, gotT, gotS, ok)
		}
	}
}

// wantSpan is what one span of a slot-reuse tree must read back as.
type wantSpan struct {
	parent string
	attrs  map[string]string
}

// TestRingSlotReuse fills a small ring several times over with trees of
// different sizes and attribute counts — a one-span tree, a cache-hit
// shape, trees longer than a reused slot keeps — and checks that each
// retained trace reads back exactly its own spans, attributes and parent
// links, with nothing of the trace its slot held before, and that a reused
// slot's dropped count starts again at 0.
func TestRingSlotReuse(t *testing.T) {
	tr := NewTracer()
	tr.capTrace, tr.capSpans = 5, 6
	type made struct {
		id      string
		spans   map[string]wantSpan
		dropped int
	}
	var all []made
	for n := 0; n < 4*tr.capTrace+3; n++ {
		size := []int{1, 2, 9, 4, 3, 7}[n%6] // spans in the tree, root included
		root := tr.StartRequest(fmt.Sprintf("r%d", n), "", time.Now())
		m := made{id: root.TraceID(), spans: map[string]wantSpan{}}
		attrs := map[string]string{}
		for a := 0; a < n%5; a++ {
			k, v := fmt.Sprintf("k%d", a), fmt.Sprintf("t%d.%d", n, a)
			root.SetAttr(k, v)
			attrs[k] = v
		}
		m.spans[root.SpanID()] = wantSpan{attrs: attrs}
		parent := root
		for c := 1; c < size; c++ {
			s := parent.StartChild(fmt.Sprintf("c%d", c))
			ca := map[string]string{"n": fmt.Sprint(n), "c": fmt.Sprint(c)}
			for k, v := range ca {
				s.SetAttr(k, v)
			}
			m.spans[s.SpanID()] = wantSpan{parent: parent.SpanID(), attrs: ca}
			s.End()
			if c%3 == 0 {
				parent = s // some depth, not only a fan
			}
		}
		root.End()
		m.dropped = max(0, size-tr.capSpans)
		all = append(all, m)
	}
	if tr.Len() != tr.capTrace {
		t.Fatalf("ring retains %d traces, want %d", tr.Len(), tr.capTrace)
	}
	for i, m := range all {
		got := tr.Trace(m.id)
		if i < len(all)-tr.capTrace {
			if got != nil {
				t.Errorf("trace %d was evicted but reads %d spans", i, len(got))
			}
			continue
		}
		if len(got)+m.dropped != len(m.spans) || tr.Dropped(m.id) != m.dropped {
			t.Errorf("trace %d: %d spans and %d dropped, want %d in all, %d dropped", i, len(got), tr.Dropped(m.id), len(m.spans), m.dropped)
		}
		for _, d := range got {
			want, ok := m.spans[d.SpanID]
			if !ok || d.TraceID != m.id {
				t.Errorf("trace %d holds span %s of trace %s, not its own", i, d.SpanID, d.TraceID)
				continue
			}
			if d.Parent != want.parent {
				t.Errorf("trace %d span %s: parent %q, want %q", i, d.Name, d.Parent, want.parent)
			}
			if fmt.Sprint(d.Attrs) != fmt.Sprint(want.attrs) {
				t.Errorf("trace %d span %s: attrs %v, want %v", i, d.Name, d.Attrs, want.attrs)
			}
		}
	}
	for i := range tr.ring {
		if c := cap(tr.ring[i].spans); c > max(slotKeep, tr.capSpans) {
			t.Errorf("slot %d keeps room for %d records", i, c)
		}
	}
}

// TestContinuedTracesHeapBound fills the ring with traces that clients
// continue request after request, each twice past DefaultSpanCap: the ring
// holds at most recordCap records, every other span is counted as
// dropped, and the live heap the tracer pins stays under twice the records'
// size (a slot's backing grows by doubling) plus the slots' kept backings.
// Bounded per trace alone, the same ring pinned about 23 MB.
func TestContinuedTracesHeapBound(t *testing.T) {
	const perRequest = 16 // spans in each request's tree, root included
	size := int(unsafe.Sizeof(record{}))
	budget := (2*recordCap+DefaultTraceCap*slotKeep)*size + 256<<10 // and the ring, the index
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := NewTracer()
	rounds := 2 * DefaultSpanCap / perRequest
	for round := 0; round < rounds; round++ {
		for i := 0; i < DefaultTraceCap; i++ {
			root := tr.StartRequest("request", fmt.Sprintf("00-%032x-%016x-01", i+1, round+1), time.Now())
			for c := 1; c < perRequest; c++ {
				root.StartChild("c").End()
			}
			root.End()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d continued traces pin %.2f MB, budget %.2f MB", DefaultTraceCap, float64(heap)/1e6, float64(budget)/1e6)
	if heap > int64(budget) {
		t.Error("the ring pins more than its budget")
	}
	held, dropped := 0, 0
	for i := 0; i < DefaultTraceCap; i++ {
		id := fmt.Sprintf("%032x", i+1)
		held += len(tr.Trace(id))
		dropped += tr.Dropped(id)
	}
	if held != recordCap || held+dropped != rounds*DefaultTraceCap*perRequest {
		t.Errorf("ring holds %d records and dropped %d, want %d held of %d", held, dropped, recordCap, rounds*DefaultTraceCap*perRequest)
	}
	runtime.KeepAlive(tr)
}

// TestLateSpanFilesUnderItsTrace: a span that ends after its root, once
// the root's slot has gone to other traces, files under its own trace ID.
func TestLateSpanFilesUnderItsTrace(t *testing.T) {
	tr := NewTracer()
	tr.capTrace = 2
	root := tr.StartRequest("request", "", time.Now())
	late := root.StartChild("compute")
	late.SetAttr("k", "v")
	root.End()
	for i := 0; i < 3; i++ {
		tr.StartRequest("other", "", time.Now()).End()
	}
	if tr.Trace(root.TraceID()) != nil {
		t.Fatal("the root's trace outlived its slot")
	}
	late.End()
	got := tr.Trace(root.TraceID())
	if len(got) != 1 || got[0].SpanID != late.SpanID() || got[0].Parent != root.SpanID() || got[0].Attrs["k"] != "v" {
		t.Fatalf("late span filed as %+v, want compute under %s", got, root.SpanID())
	}
	for _, d := range got {
		if d.TraceID != root.TraceID() {
			t.Fatalf("late span filed under trace %s, want %s", d.TraceID, root.TraceID())
		}
	}
}

// TestAttrsSpillPastInline: a span keeps every attribute it is given,
// however many, in Snapshot, Tree and Trace; a key set again wins.
func TestAttrsSpillPastInline(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRequest("request", "", time.Now())
	c := root.StartChild("busy")
	want := map[string]string{}
	for i := 0; i < 3*inlineAttrs+2; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		c.SetAttr(k, v)
		want[k] = v
	}
	c.SetAttr("k0", "again")
	want["k0"] = "again"
	snap, _ := c.Snapshot()
	c.End()
	tree := root.Tree()
	root.End()
	var traced SpanData
	for _, d := range tr.Trace(root.TraceID()) {
		if d.Name == "busy" {
			traced = d
		}
	}
	for name, got := range map[string]map[string]string{"Snapshot": snap.Attrs, "Tree": tree[0].Attrs, "Trace": traced.Attrs} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s attrs = %v, want %v", name, got, want)
		}
	}
}

// TestIDsDistinct: 10⁵ request trees have distinct, non-zero trace IDs
// and root span IDs, and a child's ID differs from its root's.
func TestIDsDistinct(t *testing.T) {
	tr := NewTracer()
	traces, spans := map[string]bool{}, map[string]bool{}
	for i := 0; i < 100_000; i++ {
		root := tr.StartRequest("r", "", time.Now())
		tid, sid := root.TraceID(), root.SpanID()
		if !ValidTraceID(tid) || sid == strings.Repeat("0", 16) {
			t.Fatalf("request %d: zero or malformed IDs %s/%s", i, tid, sid)
		}
		if traces[tid] || spans[sid] {
			t.Fatalf("request %d: repeated trace %s or span %s", i, tid, sid)
		}
		traces[tid], spans[sid] = true, true
		if i%1000 == 0 && root.StartChild("c").SpanID() == sid {
			t.Fatal("a child shares its root's span ID")
		}
	}
}

// TestConcurrentIDsDistinct: trees minted from many goroutines at once —
// each drawing from whichever seeded generator the pool hands it — have
// pairwise distinct, non-zero trace IDs and non-zero span IDs.
func TestConcurrentIDsDistinct(t *testing.T) {
	const goroutines, trees = 8, 2000
	tr := NewTracer()
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < trees; i++ {
				root := tr.StartRequest("r", "", time.Now())
				c := root.StartChild("c")
				if root.SpanID() == strings.Repeat("0", 16) || c.SpanID() == strings.Repeat("0", 16) {
					t.Errorf("goroutine %d, tree %d: a zero span ID", g, i)
				}
				ids[g] = append(ids[g], root.TraceID())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*trees)
	for g := range ids {
		for i, id := range ids[g] {
			if !ValidTraceID(id) {
				t.Fatalf("goroutine %d, tree %d: zero or malformed trace ID %q", g, i, id)
			}
			if seen[id] {
				t.Fatalf("goroutine %d, tree %d: trace ID %s minted twice", g, i, id)
			}
			seen[id] = true
		}
	}
}

// TestTreeIsOneAllocation: a cache hit's spans — the root with its three
// attributes and one child with two — cost one allocation from start to
// filing, once the ring has settled; reading an ID renders it, and costs.
func TestTreeIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr := NewTracer()
	hit := func() {
		root := tr.StartRequest("simulate", "", time.Now())
		root.SetAttr("request_id", "r")
		c := root.StartChild("cache")
		c.SetAttr("via", "alias")
		c.SetAttr("outcome", "hit")
		c.End()
		root.SetAttr("code", "200")
		root.SetAttr("cache", "hit")
		root.End()
	}
	for i := 0; i < 2*DefaultTraceCap; i++ {
		hit()
	}
	if n := testing.AllocsPerRun(1000, hit); n > 1 {
		t.Errorf("a cache hit's tree costs %.1f allocations, want 1", n)
	}
}

// TestSpanEndsOnceAnyGoroutine: a span may be ended by a goroutine other
// than its owner — after its root has ended, or by two goroutines at once
// (as a pool job and its request both end queue_wait) — and files exactly
// one record under its trace, seen once by OnEnd.
func TestSpanEndsOnceAnyGoroutine(t *testing.T) {
	tr := NewTracer()
	var mu sync.Mutex
	ends := map[string]int{}
	tr.OnEnd(func(name string, _ time.Duration) {
		mu.Lock()
		ends[name]++
		mu.Unlock()
	})
	const trees = 200
	for i := 0; i < trees; i++ {
		root := tr.StartRequest("request", "", time.Now())
		late := root.StartChild("late")
		late.SetAttr("k", "v")
		twice := root.StartChild("twice")
		root.End()
		var wg sync.WaitGroup
		begin := make(chan struct{})
		for _, s := range []*Span{late, twice, twice} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				s.End()
			}()
		}
		close(begin)
		wg.Wait()
		count := map[string]int{}
		for _, d := range tr.Trace(root.TraceID()) {
			if d.TraceID != root.TraceID() {
				t.Fatalf("tree %d: span %s filed under trace %s", i, d.Name, d.TraceID)
			}
			count[d.SpanID]++
		}
		for _, s := range []*Span{root, late, twice} {
			if n := count[s.SpanID()]; n != 1 {
				t.Fatalf("tree %d: %d records of span %s, want 1", i, n, s.SpanID())
			}
		}
		if len(count) != 3 {
			t.Fatalf("tree %d: %d spans filed, want 3", i, len(count))
		}
	}
	if ends["twice"] != trees || ends["late"] != trees {
		t.Fatalf("OnEnd saw %v, want each of late and twice %d times", ends, trees)
	}
}

// TestRingMatchesMapModel drives a 5-slot ring with random trees — minted
// and adopted traces (from a live tree, a filed or evicted one, or a new
// one), trees longer than capSpans that file in batches, children ending
// after their root — and, after a random third of the steps, compares
// Trace, Dropped and Len with a reference that looks every batch up in a
// map. Reading only now and then lets several slots be taken between two
// lookups, which the ring's index must then catch up on.
func TestRingMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	tr := NewTracer()
	tr.capTrace, tr.capSpans = 5, 3

	type refSlot struct {
		spans   []string
		dropped int
	}
	ref := map[string]*refSlot{}
	var resident, evicted []string // resident oldest first; evicted newest last
	file := func(trace string, ids []string) {
		e := ref[trace]
		if e == nil {
			if len(resident) == tr.capTrace {
				delete(ref, resident[0])
				evicted = append(evicted, resident[0])
				resident = resident[1:]
			}
			e = &refSlot{}
			ref[trace] = e
			resident = append(resident, trace)
		}
		room := min(len(ids), tr.capSpans-len(e.spans))
		e.dropped += len(ids) - room
		e.spans = append(e.spans, ids[:room]...)
	}

	type liveTree struct {
		root    *Span
		open    []*Span // not ended yet, the root among them until it ends
		pending []string
		closed  bool
	}
	var live []*liveTree
	var traces []string // every trace ID a tree has carried
	end := func(lt *liveTree, k int) {
		s := lt.open[k]
		lt.open = append(lt.open[:k], lt.open[k+1:]...)
		s.End()
		lt.pending = append(lt.pending, s.SpanID())
		lt.closed = lt.closed || s == lt.root
		if lt.closed || len(lt.pending) == tr.capSpans {
			file(lt.root.TraceID(), lt.pending)
			lt.pending = nil
		}
	}
	check := func(step int, what string) {
		if tr.Len() != len(resident) {
			t.Fatalf("step %d (%s): Len %d, model holds %d", step, what, tr.Len(), len(resident))
		}
		seen := append(append([]string{}, resident...), evicted[max(0, len(evicted)-3):]...)
		for _, lt := range live {
			seen = append(seen, lt.root.TraceID())
		}
		for _, id := range seen {
			var got []string
			for _, d := range tr.Trace(id) {
				got = append(got, d.SpanID)
			}
			var want []string
			var dropped int
			if e := ref[id]; e != nil {
				want, dropped = append([]string{}, e.spans...), e.dropped
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) || tr.Dropped(id) != dropped {
				t.Fatalf("step %d (%s): trace %s reads spans %v, %d dropped; model %v, %d dropped",
					step, what, id, got, tr.Dropped(id), want, dropped)
			}
		}
	}

	const steps = 6000
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.IntN(10); {
		case op < 3 && len(live) < 6:
			tp := ""
			switch rng.IntN(4) {
			case 0: // a client continues a tree still in flight
				if len(live) > 0 {
					tp = string(live[rng.IntN(len(live))].root.AppendTraceparent(nil))
				}
			case 1: // a trace filed before, resident or evicted
				if len(traces) > 0 {
					tp = "00-" + traces[rng.IntN(len(traces))] + "-00000000000000aa-01"
				}
			case 2: // a trace this tracer never saw
				tp = fmt.Sprintf("00-%016x%016x-00000000000000bb-01", rng.Uint64()|1, rng.Uint64())
			}
			root := tr.StartRequest("r", tp, time.Now())
			live = append(live, &liveTree{root: root, open: []*Span{root}})
			traces = append(traces, root.TraceID())
			what = "start minted"
			if tp != "" {
				what = "start adopted"
			}
		case op < 6 && len(live) > 0:
			lt := live[rng.IntN(len(live))]
			if !lt.closed {
				lt.open = append(lt.open, lt.root.StartChild("c"))
			}
			what = "child"
		case len(live) > 0:
			i := rng.IntN(len(live))
			lt := live[i]
			end(lt, rng.IntN(len(lt.open)))
			if len(lt.open) == 0 {
				live = append(live[:i], live[i+1:]...)
			}
			what = "end"
		}
		if rng.IntN(3) == 0 || step == steps-1 {
			check(step, what)
		}
	}
}
