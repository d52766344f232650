// Package otrace is a lightweight distributed-tracing layer for the
// spind serving stack: spans with parent links and W3C-style
// traceparent identifiers, recorded into a bounded ring so a request's
// whole tree can be fetched after the fact — as a continuation of the
// client's trace when the client sent a traceparent.
//
// The package is deliberately tiny: no sampling machinery, no wire
// protocol beyond the traceparent header
// (`00-<32 hex trace id>-<16 hex span id>-01`). Every Span method is
// nil-receiver safe, so call sites never guard on whether tracing is
// enabled — an untraced request simply carries a nil *Span all the way
// through.
//
// A request reads the wall clock once: the caller's start, handed to
// StartRequest. Every later instant of the tree is that start plus a
// monotonic offset, and the caller's one end reading can close the root
// (EndAfter). IDs come from ChaCha8 generators, each seeded once from
// crypto/rand, so minting them takes no system call.
//
// A request's tree costs one allocation: the root, its first child and
// room to list them once ended come in one block, and the ring copies the
// records into slots it reuses. IDs are kept as integers and bytes; hex is
// rendered only for a reader (Snapshot, Tree, Trace, TraceID, SpanID,
// AppendTraceparent).
//
// A span belongs to the goroutine that started it: only that goroutine
// calls SetAttr, Snapshot or Tree on it, and only before it ends, so a
// span takes no lock of its own. End may come from any goroutine, more
// than once; the first End wins. The one lock a span takes is its tree's,
// to list itself as ended.
//
// A tree that minted its trace files its first batch into the next slot
// without looking: nothing else can have filed under an ID minted here,
// unless a client adopted it from the response header and filed first,
// which the tracer counts. A tree that adopted a client's trace, a later
// batch of a long tree, a span that outlives its root, and the readers
// (Trace, Dropped) look the trace up in an index of the ring's slots,
// which only a lookup brings up to date: a request that mints its trace
// touches no map.
package otrace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Traceparent format: version 00, 16-byte trace ID, 8-byte span ID,
// flags 01 (sampled). This is the W3C trace-context layout; only the
// trace and span IDs are interpreted.
const (
	traceIDHexLen  = 32
	spanIDHexLen   = 16
	traceparentLen = 2 + 1 + traceIDHexLen + 1 + spanIDHexLen + 1 + 2
)

// ParseTraceparent extracts the trace and parent-span IDs from a
// traceparent header value. ok is false for anything malformed — an
// unparseable header means "start a fresh trace", never an error. As W3C
// trace-context requires, version ff and non-hex flags are malformed.
func ParseTraceparent(tp string) (traceID, spanID string, ok bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-yyyyyyyyyyyyyyyy-01
	if len(tp) != traceparentLen {
		return "", "", false
	}
	if tp[2] != '-' || tp[3+traceIDHexLen] != '-' || tp[4+traceIDHexLen+spanIDHexLen] != '-' {
		return "", "", false
	}
	traceID = tp[3 : 3+traceIDHexLen]
	spanID = tp[4+traceIDHexLen : 4+traceIDHexLen+spanIDHexLen]
	version, flags := tp[:2], tp[traceparentLen-2:]
	if !isLowerHex(version) || version == "ff" || !isLowerHex(flags) || !isLowerHex(traceID) || !isLowerHex(spanID) {
		return "", "", false
	}
	if allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
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

// traceID is a trace's 16 bytes; its hex is what the API shows.
type traceID [16]byte

// decodeTraceID reads 32 lowercase hex characters (!ok for anything else).
func decodeTraceID(s string) (id traceID, ok bool) {
	if !ValidTraceID(s) {
		return id, false
	}
	for i := range id {
		id[i] = unhex(s[2*i])<<4 | unhex(s[2*i+1])
	}
	return id, true
}

// unhex is the value of one lowercase hex digit.
func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

func (id *traceID) String() string { return hex.EncodeToString(id[:]) }

// spanHex renders a span ID as 16 lowercase hex characters.
func spanHex(id uint64) string {
	var b [spanIDHexLen]byte
	return string(appendSpanHex(b[:0], id))
}

func appendSpanHex(b []byte, id uint64) []byte {
	for i := 0; i < spanIDHexLen; i++ {
		b = append(b, "0123456789abcdef"[id>>60])
		id <<= 4
	}
	return b
}

// idSources holds ChaCha8 generators, each seeded once from crypto/rand:
// a CSPRNG, so the IDs it mints are as unpredictable as crypto/rand's,
// drawn without a system call and, through the pool, without a lock.
var idSources = sync.Pool{New: func() any {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a non-random
		// ID still correlates, so degrade rather than panic the serving path.
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return rand.NewChaCha8(seed)
}}

// newIDs draws a request tree's identifiers: a trace ID and the base its
// span IDs count up from (the root is base, the tree's i-th child base+i),
// neither of them zero.
func newIDs() (trace traceID, base uint64) {
	src := idSources.Get().(*rand.ChaCha8)
	binary.BigEndian.PutUint64(trace[:8], src.Uint64()|1<<56)
	binary.BigEndian.PutUint64(trace[8:], src.Uint64())
	base = src.Uint64() | 1<<56
	idSources.Put(src)
	return trace, base
}

// SpanData is the exported, immutable form of one finished (or
// snapshotted) span. Durations and start times are wall-clock
// nanoseconds so spans line up on one axis with the caller's own.
type SpanData struct {
	TraceID string            `json:"trace_id"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_span_id,omitempty"`
	Name    string            `json:"name"`
	Start   int64             `json:"start_unix_ns"`
	Dur     int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

type attr struct{ k, v string }

// inlineAttrs is how many attributes a record holds in place: what the
// spans of a request carry. Any more spill to a slice.
const inlineAttrs = 3

// record is one span as a tree and the ring keep it: integer IDs (a zero
// parent is none) and attribute pairs, turned into a SpanData only when
// read. It holds no pointer into the tree, so a filed record does not keep
// its request's tree alive.
type record struct {
	name       string
	id, parent uint64
	start, dur int64
	nattr      int
	attrs      [inlineAttrs]attr
	more       []attr // the attributes past the inline ones
}

func (r *record) setAttr(k, v string) {
	if r.nattr < inlineAttrs {
		r.attrs[r.nattr] = attr{k, v}
		r.nattr++
		return
	}
	r.more = append(r.more, attr{k, v})
}

// data renders r as a span of trace; a key set again wins.
func (r *record) data(trace *traceID) SpanData {
	d := SpanData{TraceID: trace.String(), SpanID: spanHex(r.id), Name: r.name, Start: r.start, Dur: r.dur}
	if r.parent != 0 {
		d.Parent = spanHex(r.parent)
	}
	if r.nattr > 0 {
		d.Attrs = make(map[string]string, r.nattr+len(r.more))
		for _, a := range r.attrs[:r.nattr] {
			d.Attrs[a.k] = a.v
		}
		for _, a := range r.more {
			d.Attrs[a.k] = a.v
		}
	}
	return d
}

// Span is one in-progress operation. Obtain the root with
// Tracer.StartRequest and children with StartChild; finish with End.
// All methods are safe on a nil receiver (no tracer → no spans).
type Span struct {
	t     *tree
	rec   record // id and parent are fixed at start; the rest is the owner's until End
	start time.Time
	ended atomic.Bool
}

// tree is one request's spans, allocated with the root: the root, its
// first child, and the ended spans' records waiting (under mu) for the
// root's End to copy them into the ring in one go.
type tree struct {
	tr        *Tracer
	trace     traceID
	next      atomic.Uint64 // spans started after the root
	firstUsed atomic.Bool
	root      Span
	first     Span
	// adoptedAt is the tracer's adoptedTakes when the tree started: if it
	// has moved by the first filing, a client may have filed under this
	// tree's minted trace already.
	adoptedAt uint64

	mu      sync.Mutex
	done    []*record
	closed  bool       // the root has ended: a later span files at once
	filed   bool       // a batch is in the ring
	doneBuf [2]*record // done's first backing: a cache hit's two spans
}

// adopted reports whether the tree continues a client's trace: only then
// has its root a parent.
func (t *tree) adopted() bool { return t.root.rec.parent != 0 }

// StartChild opens a child span under s, now.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, s.Now())
}

// Now is the tree's clock: its root's start plus the monotonic time since,
// read without the wall clock (the zero Time on nil).
func (s *Span) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	start := s.t.root.start
	return start.Add(time.Since(start))
}

// StartChildAt opens a child as of start: a span named once part of it ran.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	c := &t.first
	if t.firstUsed.Swap(true) {
		c = new(Span)
	}
	c.t = t
	c.start = start
	c.rec.name = name
	c.rec.id = t.root.rec.id + t.next.Add(1)
	c.rec.parent = s.rec.id
	c.rec.start = start.UnixNano()
	return c
}

// SetAttr attaches one key=value attribute; an ended span ignores it. Only
// the goroutine that started the span calls it.
func (s *Span) SetAttr(k, v string) {
	if s != nil && !s.ended.Load() {
		s.rec.setAttr(k, v)
	}
}

// End finishes the span (at most once; duplicate Ends are ignored). The
// ring sees it when its root ends — or at once if it outlives its root, as
// the computation a cancelled request leaves behind does, or fills a batch.
func (s *Span) End() {
	if s != nil {
		s.EndAfter(time.Since(s.start))
	}
}

// EndAfter is End for a caller that has read the clock itself: the span
// lasted d from its start.
func (s *Span) EndAfter(d time.Duration) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.rec.dur = d.Nanoseconds()
	t := s.t
	if fn := t.tr.onEnd.Load(); fn != nil {
		(*fn)(s.rec.name, d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = append(t.done, &s.rec)
	t.closed = t.closed || s == &t.root
	if t.closed || len(t.done) == t.tr.capSpans {
		t.tr.record(t)
		t.filed = true
		t.done = t.done[:0]
	}
}

// Tree is the live view of a root's tree: the spans that have ended and
// wait for the root's End, then the root itself as Snapshot shows it.
func (s *Span) Tree() []SpanData {
	d, ok := s.Snapshot()
	if !ok {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.done)+1)
	for _, rec := range t.done {
		out = append(out, rec.data(&t.trace))
	}
	return append(out, d)
}

// Snapshot returns the span's current data with the duration measured
// up to now — the live view of an unfinished span.
func (s *Span) Snapshot() (SpanData, bool) {
	if s == nil {
		return SpanData{}, false
	}
	r := s.rec
	if !s.ended.Load() {
		r.dur = time.Since(s.start).Nanoseconds()
	}
	return r.data(&s.t.trace), true
}

// TraceID reports the span's 32-hex-char trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.trace.String()
}

// SpanID reports the span's 16-hex-char span ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return spanHex(s.rec.id)
}

// AppendTraceparent appends the header value that makes a downstream
// service's spans children of s (nothing on nil).
func (s *Span) AppendTraceparent(b []byte) []byte {
	if s == nil {
		return b
	}
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, s.t.trace[:])
	b = append(b, '-')
	b = appendSpanHex(b, s.rec.id)
	return append(b, "-01"...)
}

// slot is one retained trace in the ring.
type slot struct {
	trace   traceID
	spans   []record
	dropped int
}

// slotKeep bounds the records a reused slot's backing may hold: enough for
// a request that decoded its body, so a cache hit's tree files without
// allocating, and small enough that no slot keeps the largest trace it
// ever held.
const slotKeep = 4

// Tracer records finished spans into a bounded ring of traces.
type Tracer struct {
	capTrace   int
	capSpans   int
	capRecords int // the records the whole ring may hold

	mu   sync.Mutex
	ring []slot // the n-th slot taken is ring[n % capTrace]
	held int    // the records the ring holds
	// taken counts the slots taken, indexed how many of those takes index
	// has recorded. index maps a trace to its slot; an entry is stale once
	// a later take gives its slot to another trace.
	taken, indexed int
	index          map[traceID]int
	// adoptedTakes counts the slots adopted traces took, having looked for
	// themselves in vain: what a minted trace's first filing checks.
	adoptedTakes atomic.Uint64
	onEnd        atomic.Pointer[func(name string, dur time.Duration)]
}

// DefaultTraceCap and DefaultSpanCap bound the ring: at most
// DefaultTraceCap distinct traces retained, each keeping at most
// DefaultSpanCap spans (beyond that, spans are counted but dropped).
const (
	DefaultTraceCap = 256
	DefaultSpanCap  = 512
)

// recordCap bounds the records of all the ring's traces together, spans
// past it counted but dropped like those past DefaultSpanCap. One trace may
// hold a long run's every epoch span, but a ring of traces that clients
// continue request after request holds about 1.4 MB of records, not
// 256 × 90 KB.
const recordCap = 8192

// NewTracer builds a tracer bounded by DefaultTraceCap, DefaultSpanCap and
// recordCap.
func NewTracer() *Tracer {
	return &Tracer{
		capTrace:   DefaultTraceCap,
		capSpans:   DefaultSpanCap,
		capRecords: recordCap,
		index:      make(map[traceID]int),
	}
}

// OnEnd installs a callback invoked (synchronously) with every span's
// name and duration as it ends — the hook the serving layer feeds
// span-duration histograms from.
func (t *Tracer) OnEnd(fn func(name string, dur time.Duration)) {
	if t != nil {
		t.onEnd.Store(&fn)
	}
}

// StartRequest opens a root span for one inbound request that started at
// start, the tree's one wall-clock reading. A valid traceparent header
// adopts the remote trace ID and parents the root under the caller's span;
// anything else mints a fresh trace. Safe on a nil tracer (returns a nil
// span).
func (t *Tracer) StartRequest(name, traceparent string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	tr := &tree{tr: t, adoptedAt: t.adoptedTakes.Load()}
	tr.done = tr.doneBuf[:0]
	s := &tr.root
	s.t = tr
	s.start = start
	s.rec.name = name
	s.rec.start = start.UnixNano()
	tr.trace, s.rec.id = newIDs()
	if tid, parent, ok := ParseTraceparent(traceparent); ok {
		tr.trace, _ = decodeTraceID(tid)
		s.rec.parent, _ = strconv.ParseUint(parent, 16, 64)
	}
	return s
}

// record files a tree's ended spans under its trace (under the tree's
// lock). A minted trace's first batch takes the next slot; any other batch
// looks for its trace's slot first, and takes the next only when the trace
// is not in the ring. The next slot is the oldest trace's beyond the trace
// cap. The records are copied.
func (t *Tracer) record(tr *tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := -1
	if tr.filed || tr.adopted() || t.adoptedTakes.Load() != tr.adoptedAt {
		i = t.find(&tr.trace)
	}
	stale := 0 // records a reused slot held past the ones filed now
	if i < 0 {
		if tr.adopted() {
			t.adoptedTakes.Add(1)
		}
		i = t.taken % t.capTrace
		t.taken++
		if i == len(t.ring) {
			t.ring = append(t.ring, slot{})
		}
		e := &t.ring[i]
		t.held -= len(e.spans)
		if cap(e.spans) > slotKeep {
			e.spans = nil
		}
		stale = len(e.spans)
		*e = slot{trace: tr.trace, spans: e.spans[:0]}
	}
	e := &t.ring[i]
	// A long tree comes in batches; a trace a client continues over several
	// requests has several roots here.
	room := min(len(tr.done), t.capSpans-len(e.spans), t.capRecords-t.held)
	t.held += room
	e.dropped += len(tr.done) - room
	e.spans = slices.Grow(e.spans, room)
	for _, rec := range tr.done[:room] {
		e.spans = append(e.spans, *rec)
	}
	if n := len(e.spans); stale > n {
		clear(e.spans[n:stale]) // the slot pins no string of the trace it held
	}
}

// find is the slot holding trace, or -1 (under t.mu). It first indexes the
// slots taken since the last find, and starts the index over from the
// ring once it holds more stale entries than slots.
func (t *Tracer) find(trace *traceID) int {
	if t.taken-t.indexed > len(t.ring) || len(t.index) > 2*len(t.ring) {
		clear(t.index)
		t.indexed = t.taken - len(t.ring)
	}
	for ; t.indexed < t.taken; t.indexed++ {
		i := t.indexed % t.capTrace
		t.index[t.ring[i].trace] = i
	}
	if i, ok := t.index[*trace]; ok && t.ring[i].trace == *trace {
		return i
	}
	return -1
}

// Trace returns the recorded spans of one trace, start-time ordered
// (nil when the trace is unknown or evicted). The slice is a copy.
func (t *Tracer) Trace(traceID string) []SpanData {
	id, ok := decodeTraceID(traceID)
	if t == nil || !ok {
		return nil
	}
	t.mu.Lock()
	var out []SpanData
	if i := t.find(&id); i >= 0 {
		out = make([]SpanData, len(t.ring[i].spans))
		for j := range out {
			out[j] = t.ring[i].spans[j].data(&id)
		}
	}
	t.mu.Unlock()
	SortSpans(out)
	return out
}

// Dropped reports how many spans of a trace were discarded over the
// per-trace cap.
func (t *Tracer) Dropped(traceID string) int {
	id, ok := decodeTraceID(traceID)
	if t == nil || !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(&id); i >= 0 {
		return t.ring[i].dropped
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
	return len(t.ring)
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
