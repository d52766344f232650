// Package otrace is a lightweight distributed-tracing layer for the
// spind serving stack: spans with parent links and W3C-style
// traceparent identifiers, recorded into a bounded ring so a request's
// whole tree can be fetched after the fact — as a continuation of the
// client's trace when the client sent a traceparent.
//
// The package is deliberately tiny: no clocks beyond time.Now, no
// sampling machinery, no wire protocol beyond the traceparent header
// (`00-<32 hex trace id>-<16 hex span id>-01`). Every Span method is
// nil-receiver safe, so call sites never guard on whether tracing is
// enabled — an untraced request simply carries a nil *Span all the way
// through.
package otrace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Traceparent format: version 00, 16-byte trace ID, 8-byte span ID,
// flags 01 (sampled). This is the W3C trace-context layout; only the
// trace and span IDs are interpreted.
const (
	traceIDHexLen = 32
	spanIDHexLen  = 16
)

// ParseTraceparent extracts the trace and parent-span IDs from a
// traceparent header value. ok is false for anything malformed — an
// unparseable header means "start a fresh trace", never an error.
func ParseTraceparent(tp string) (traceID, spanID string, ok bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-yyyyyyyyyyyyyyyy-01
	if len(tp) != 2+1+traceIDHexLen+1+spanIDHexLen+1+2 {
		return "", "", false
	}
	if tp[2] != '-' || tp[3+traceIDHexLen] != '-' || tp[4+traceIDHexLen+spanIDHexLen] != '-' {
		return "", "", false
	}
	traceID = tp[3 : 3+traceIDHexLen]
	spanID = tp[4+traceIDHexLen : 4+traceIDHexLen+spanIDHexLen]
	if !isLowerHex(tp[:2]) || !isLowerHex(traceID) || !isLowerHex(spanID) {
		return "", "", false
	}
	if allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}

// FormatTraceparent renders a traceparent header value.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// newIDs draws a request tree's identifiers in one crypto/rand read: a
// 32-hex trace ID and the base its span IDs count up from (the root is
// base, the tree's i-th child base+i), neither of them zero.
func newIDs() (traceID string, base uint64) {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a non-random
		// ID still correlates, so degrade rather than panic the serving path.
		for i := 0; i < len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], uint64(time.Now().UnixNano()))
		}
	}
	b[0] |= 1
	b[16] |= 1
	var h [traceIDHexLen]byte
	hex.Encode(h[:], b[:16])
	return string(h[:]), binary.BigEndian.Uint64(b[16:])
}

// spanHex renders a span ID as 16 lowercase hex characters.
func spanHex(id uint64) string {
	var b [spanIDHexLen]byte
	for i := range b {
		b[i] = "0123456789abcdef"[id>>60]
		id <<= 4
	}
	return string(b[:])
}

// SpanData is the exported, immutable form of one finished (or
// snapshotted) span. Durations and start times are wall-clock
// nanoseconds so spans line up on one axis with the caller's own.
type SpanData struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_span_id,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_unix_ns"`
	Dur     int64  `json:"dur_ns"`
	// Attrs is built by Span.Snapshot, Span.Tree and Tracer.Trace only: a
	// span keeps its attributes as a few pairs, which is what OnEnd sees.
	Attrs map[string]string `json:"attrs,omitempty"`
	attrs []attr
}

type attr struct{ k, v string }

// rendered returns d with Attrs built from the pairs.
func (d SpanData) rendered() SpanData {
	if len(d.attrs) > 0 {
		d.Attrs = make(map[string]string, len(d.attrs))
		for _, a := range d.attrs {
			d.Attrs[a.k] = a.v
		}
	}
	return d
}

// Span is one in-progress operation. Obtain the root with
// Tracer.StartRequest and children with StartChild; finish with End.
// All methods are safe on a nil receiver (no tracer → no spans).
type Span struct {
	tr      *Tracer
	root    *Span
	mu      sync.Mutex
	data    SpanData
	start   time.Time
	ended   bool
	attrbuf [3]attr // data.attrs' first backing: what a request's spans carry
	// On a root, for its tree: a span's ID is base + the number of spans
	// started before it, and a span that ends waits in done (under mu) for
	// the root's End to file the tree into the ring as one record.
	base uint64
	next atomic.Uint64
	done []SpanData
}

// StartChild opens a child span under s.
func (s *Span) StartChild(name string) *Span { return s.StartChildAt(name, time.Now()) }

// StartChildAt opens a child as of start: a span named once part of it ran.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:    s.tr,
		root:  s.root,
		start: start,
		data: SpanData{
			TraceID: s.data.TraceID,
			SpanID:  spanHex(s.root.base + s.root.next.Add(1)),
			Parent:  s.data.SpanID,
			Name:    name,
			Start:   start.UnixNano(),
		},
	}
}

// SetAttr attaches one key=value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.attrs == nil {
		s.data.attrs = s.attrbuf[:0]
	}
	s.data.attrs = append(s.data.attrs, attr{k, v}) // a key set again wins when rendered
	s.mu.Unlock()
}

// End finishes the span (at most once; duplicate Ends are ignored). The
// ring sees it when its root ends — or at once if it outlives its root, as
// the computation a cancelled request leaves behind does, or fills a batch.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Dur = time.Since(s.start).Nanoseconds()
	d := s.data
	s.mu.Unlock()
	if fn := s.tr.onEnd.Load(); fn != nil {
		(*fn)(d)
	}
	r := s.root
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = append(r.done, d)
	if r.ended || len(r.done) == s.tr.capSpans {
		s.tr.record(d.TraceID, r.done)
		r.done = nil
	}
}

// Tree is the live view of a root's tree: the spans that have ended and
// wait for the root's End, then the root itself as Snapshot shows it.
func (s *Span) Tree() []SpanData {
	d, ok := s.Snapshot()
	if !ok {
		return nil
	}
	s.root.mu.Lock()
	defer s.root.mu.Unlock()
	out := make([]SpanData, 0, len(s.root.done)+1)
	for _, f := range s.root.done {
		out = append(out, f.rendered())
	}
	return append(out, d)
}

// Snapshot returns the span's current data with the duration measured
// up to now — the live view of an unfinished span.
func (s *Span) Snapshot() (SpanData, bool) {
	if s == nil {
		return SpanData{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.data
	if !s.ended {
		d.Dur = time.Since(s.start).Nanoseconds()
	}
	return d.rendered(), true
}

// TraceID reports the span's 32-hex-char trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID reports the span's 16-hex-char span ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// Traceparent renders the header value that makes a downstream
// service's spans children of s ("" on nil).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.data.TraceID, s.data.SpanID)
}

// traceEntry is one trace's recorded spans.
type traceEntry struct {
	spans   []SpanData
	dropped int
}

// Tracer records finished spans into a bounded per-trace ring.
type Tracer struct {
	capTrace int
	capSpans int

	mu     sync.Mutex
	traces map[string]*traceEntry
	order  []string // ring of retained trace IDs; once full, order[head] is the oldest
	head   int
	onEnd  atomic.Pointer[func(SpanData)]
}

// DefaultTraceCap and DefaultSpanCap bound the ring: at most
// DefaultTraceCap distinct traces retained, each keeping at most
// DefaultSpanCap spans (beyond that, spans are counted but dropped).
const (
	DefaultTraceCap = 256
	DefaultSpanCap  = 512
)

// NewTracer builds a tracer bounded by DefaultTraceCap and DefaultSpanCap.
func NewTracer() *Tracer {
	return &Tracer{
		capTrace: DefaultTraceCap,
		capSpans: DefaultSpanCap,
		traces:   make(map[string]*traceEntry),
	}
}

// OnEnd installs a callback invoked (synchronously) for every span as it
// ends — the hook the serving layer feeds span-duration histograms from.
func (t *Tracer) OnEnd(fn func(SpanData)) {
	if t != nil {
		t.onEnd.Store(&fn)
	}
}

// StartRequest opens a root span for one inbound request. A valid
// traceparent header adopts the remote trace ID and parents the root
// under the caller's span; anything else mints a
// fresh trace. Safe on a nil tracer (returns a nil span).
func (t *Tracer) StartRequest(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &Span{tr: t, start: now}
	s.root = s
	s.data = SpanData{Name: name, Start: now.UnixNano()}
	s.data.TraceID, s.base = newIDs()
	s.data.SpanID = spanHex(s.base)
	if tid, parent, ok := ParseTraceparent(traceparent); ok {
		s.data.TraceID = tid
		s.data.Parent = parent
	}
	return s
}

// record files finished spans of one tree under their trace, evicting the
// oldest trace beyond the trace cap. The slice is the ring's from here on.
func (t *Tracer) record(traceID string, spans []SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.traces[traceID]
	if e == nil {
		e = &traceEntry{}
		t.traces[traceID] = e
		if len(t.order) < t.capTrace {
			t.order = append(t.order, traceID)
		} else {
			delete(t.traces, t.order[t.head])
			t.order[t.head] = traceID
			t.head = (t.head + 1) % t.capTrace
		}
	}
	// A long tree comes in batches; a trace a client continues over several
	// requests has several roots here.
	room := min(len(spans), t.capSpans-len(e.spans))
	e.dropped += len(spans) - room
	if e.spans == nil {
		e.spans = spans[:room]
	} else {
		e.spans = append(e.spans, spans[:room]...)
	}
}

// Trace returns the recorded spans of one trace, start-time ordered
// (nil when the trace is unknown or evicted). The slice is a copy.
func (t *Tracer) Trace(traceID string) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	e := t.traces[traceID]
	var out []SpanData
	if e != nil {
		out = append([]SpanData(nil), e.spans...)
	}
	t.mu.Unlock()
	for i := range out {
		out[i] = out[i].rendered()
	}
	SortSpans(out)
	return out
}

// Dropped reports how many spans of a trace were discarded over the
// per-trace cap.
func (t *Tracer) Dropped(traceID string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.traces[traceID]; e != nil {
		return e.dropped
	}
	return 0
}

// Len reports how many traces are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// SortSpans orders spans by start time (then span ID for stability) —
// the canonical order for responses and timelines.
func SortSpans(spans []SpanData) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// ValidTraceID reports whether id is a well-formed 32-hex-char trace ID
// (the /v1/trace/<id> path segment check).
func ValidTraceID(id string) bool {
	return len(id) == traceIDHexLen && isLowerHex(id) && !allZero(id)
}

// String implements fmt.Stringer for debugging.
func (d SpanData) String() string {
	return fmt.Sprintf("%s/%s %s %dns", d.TraceID, d.SpanID, d.Name, d.Dur)
}
