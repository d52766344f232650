package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/otrace"
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
//	                emitted live while this node leads the computation
//	event: result   the full SimResponse — byte-identical to the
//	                non-streaming response body for the same request
//	event: error    a failure, with the request ID for log correlation
//	: keepalive     comment heartbeats while waiting (cache hits and
//	                singleflight waiters see no samples, only the result)
//
// The stream flag is a transport knob, not a request parameter: it is
// excluded from the canonical encoding, so streaming and non-streaming
// callers share one cache entry and one singleflight flight.

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

// event emits one named event; multi-line data is split across data:
// lines per the SSE framing rules.
func (s *sseWriter) event(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.wrote = true
	s.w.Write([]byte("event: " + name + "\n"))
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		s.w.Write([]byte("data: "))
		s.w.Write(line)
		s.w.Write([]byte("\n"))
	}
	s.w.Write([]byte("\n"))
	s.fl.Flush()
}

// comment emits an SSE comment line (clients ignore it; proxies see
// traffic and keep the connection open).
func (s *sseWriter) comment(text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.wrote = true
	s.w.Write([]byte(": " + text + "\n\n"))
	s.fl.Flush()
}

// close detaches the writer from the connection; subsequent events are
// dropped. Returns whether anything was ever written (an untouched
// stream can still fall back to a plain HTTP error).
func (s *sseWriter) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.wrote
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
	w := n.Cycles / 50
	if w < 1 {
		w = 1
	}
	return w
}

// handleSimulateSSE is POST /v1/simulate?stream=sse. req is the decoded
// request, n its canonical form, key the shared content address.
func (s *Server) handleSimulateSSE(w http.ResponseWriter, r *http.Request, req, n SimRequest, key string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, r, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	info := requestInfo(r)
	span := requestSpan(r)
	if info != nil {
		info.key = key
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set("X-Cache-Key", key)
	sw := &sseWriter{w: w, fl: fl}
	defer sw.close()

	window := streamWindowFor(req, n)
	compute := s.onPool(span, key, func(ctx context.Context, cs *otrace.Span) ([]byte, error) {
		return s.runSim(ctx, n, key, window, func(smp sim.WindowSample) {
			b, err := json.Marshal(smp)
			if err != nil {
				return
			}
			sw.event("sample", b)
		}, cs)
	})

	// Do blocks until the flight finishes; run it aside so this handler
	// can heartbeat the connection meanwhile (a cache hit returns before
	// the first tick; a shared waiter may sit for minutes).
	type result struct {
		body    []byte
		outcome cache.Outcome
		err     error
	}
	done := make(chan result, 1)
	go func() {
		body, outcome, err := s.store.Do(r.Context(), key, s.fleetCompute(r, info, key, compute, nil))
		done <- result{body, outcome, err}
	}()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			sw.comment("keepalive")
		case res := <-done:
			if res.err != nil {
				if info != nil {
					info.cache = "error"
				}
				s.streamError(w, r, sw, key, res.err)
				return
			}
			if info != nil {
				info.cache = res.outcome.String()
			}
			sw.event("result", res.body)
			return
		}
	}
}

// streamError reports a failure on a stream. If nothing has been
// written yet the response falls back to the plain HTTP error mapping
// (status codes stay meaningful for non-led requests); otherwise the
// status line is long gone and the error travels in-band.
func (s *Server) streamError(w http.ResponseWriter, r *http.Request, sw *sseWriter, key string, err error) {
	sw.mu.Lock()
	wrote := sw.wrote
	sw.mu.Unlock()
	if !wrote {
		s.writeError(w, r, key, err)
		return
	}
	msg := struct {
		Error   string `json:"error"`
		Request string `json:"request_id,omitempty"`
	}{Error: err.Error()}
	if info := requestInfo(r); info != nil {
		msg.Request = info.id
	}
	b, _ := json.Marshal(msg)
	sw.event("error", b)
}
