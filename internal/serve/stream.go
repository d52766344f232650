package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

// This file is the server-sent-events view of /v1/simulate
// (?stream=sse): the same computation, the same cache key, the same
// final bytes — but with the windowed time-series pushed to the client
// as the simulation progresses instead of only after it finishes.
//
// Protocol (SSE, text/event-stream):
//
//	event: sample   one closed telemetry window (sim.WindowSample JSON),
//	                emitted live while this request leads the computation
//	event: result   the full SimResponse — byte-identical to the
//	                non-streaming response body for the same request
//	event: error    a failure, with the request ID for log correlation
//	: keepalive     comment heartbeats while waiting (cache hits and
//	                singleflight waiters see no samples, only the result)
//
// The stream flag is a response mode of the shared request tail
// (serveCached), not a request parameter: it is excluded from the
// canonical encoding, so streaming and non-streaming callers share one
// cache entry and one singleflight flight.

// sseWriter serializes writes to one event-stream connection. The
// computation leader outlives its own handler when other waiters remain
// (cache.Store.Do runs compute on a flight goroutine), so the sample
// callback may fire after this handler returned; close() flips closed
// under the same mutex event() writes under, guaranteeing nothing
// touches the ResponseWriter after the handler exits.
type sseWriter struct {
	mu     sync.Mutex
	w      http.ResponseWriter
	fl     http.Flusher
	closed bool
	wrote  bool
}

// newSSEWriter puts the connection into event-stream mode (nil when it
// cannot flush).
func newSSEWriter(w http.ResponseWriter, key string) *sseWriter {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set("X-Cache-Key", key)
	return &sseWriter{w: w, fl: fl}
}

// write sends one framed block — an event, or a comment line (clients
// ignore it; proxies see traffic and keep the connection open) — and
// flushes it.
func (s *sseWriter) write(block []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.wrote = true
	s.w.Write(block)
	s.fl.Flush()
}

// event emits one named event; multi-line data is split across data:
// lines per the SSE framing rules.
func (s *sseWriter) event(name string, data []byte) {
	block := []byte("event: " + name + "\n")
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		block = append(append(append(block, "data: "...), line...), '\n')
	}
	s.write(append(block, '\n'))
}

// close detaches the writer from the connection; subsequent events are
// dropped.
func (s *sseWriter) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// streamWindowFor picks the sample-window size for a streamed run: the
// request's epoch when set (even without telemetry — the samples are
// the point of streaming), else ~50 windows across the run.
func streamWindowFor(req, n SimRequest) int64 {
	if n.Epoch > 0 {
		return n.Epoch
	}
	if req.Epoch > 0 {
		return req.Epoch
	}
	return max(n.Cycles/50, 1)
}

// sample emits one closed telemetry window.
func (s *sseWriter) sample(smp sim.WindowSample) {
	if b, err := json.Marshal(smp); err == nil {
		s.event("sample", b)
	}
}

// fail reports a failure in-band, with the request ID for log
// correlation, and returns true — unless nothing has been written yet:
// then the status line is still available, the caller falls back to the
// plain HTTP error mapping (status codes stay meaningful for non-led
// requests) and fail returns false.
func (s *sseWriter) fail(requestID string, err error) bool {
	s.mu.Lock()
	wrote := s.wrote
	s.mu.Unlock()
	if !wrote {
		return false
	}
	b, _ := json.Marshal(struct {
		Error   string `json:"error"`
		Request string `json:"request_id,omitempty"`
	}{err.Error(), requestID})
	s.event("error", b)
	return true
}

// await runs do — the cache lookup and whatever computation it leads or
// joins. In plain mode (a nil writer) that is all; a stream runs it aside
// and heartbeats the connection until it returns: a cache hit is back
// before the first tick, a shared waiter may sit for minutes.
func (s *sseWriter) await(do func() ([]byte, cache.Outcome, error)) (body []byte, outcome cache.Outcome, err error) {
	if s == nil {
		return do()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, outcome, err = do()
	}()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.write([]byte(": keepalive\n\n"))
		case <-done:
			return body, outcome, err
		}
	}
}
