package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/otrace"
	"repro/internal/prom"
)

// TestMetricsRenderConcurrent hammers the text renderer while every
// instrument kind mutates underneath it: scrapes must never tear, lose
// an instrument, or trip the race detector (run with -race), and the
// totals after the storm must account for every recorded sample —
// including series born mid-scrape.
func TestMetricsRenderConcurrent(t *testing.T) {
	reg := prom.NewRegistry()
	c := reg.Counter("t_ops_total", "ops by worker and op")
	g := reg.Gauge("t_level", "a settable gauge")
	h := reg.Histogram("t_dur_seconds", "durations", []float64{0.001, 0.01, 0.1, 1})
	reg.GaugeFunc("t_sampled", "a scrape-time gauge", func() float64 { return 1 })

	const workers, iters = 8, 400
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				reg.Render(&buf)
				out := buf.String()
				// Every scrape is a complete exposition, whatever the
				// mutators are doing.
				for _, must := range []string{
					"# TYPE t_ops_total counter",
					"# TYPE t_dur_seconds histogram",
					"t_sampled 1\n",
				} {
					if !strings.Contains(out, must) {
						t.Errorf("concurrent scrape lost %q", must)
						return
					}
				}
			}
		}()
	}
	var mut sync.WaitGroup
	for w := 0; w < workers; w++ {
		mut.Add(1)
		go func(w int) {
			defer mut.Done()
			for i := 0; i < iters; i++ {
				c.With("worker", fmt.Sprintf("w%d", w%3), "op", fmt.Sprintf("op%d", i%5)).Add(1)
				g.Set(float64(i))
				h.With("span", fmt.Sprintf("s%d", i%4)).Observe(float64(i%7) / 100)
				h.Observe(float64(i % 3))
			}
		}(w)
	}
	mut.Wait()
	close(stop)
	scrapers.Wait()

	var total float64
	for w := 0; w < 3; w++ {
		for op := 0; op < 5; op++ {
			total += c.With("worker", fmt.Sprintf("w%d", w), "op", fmt.Sprintf("op%d", op)).Value()
		}
	}
	if total != workers*iters {
		t.Errorf("counter lost samples under scrape load: %v, want %d", total, workers*iters)
	}
	if n := h.With().Count(); n != workers*iters {
		t.Errorf("unlabeled histogram count %d, want %d", n, workers*iters)
	}
	for i := 0; i < 4; i++ {
		if n := h.With("span", fmt.Sprintf("s%d", i)).Count(); n != workers*iters/4 {
			t.Errorf("series s%d count %d, want %d", i, n, workers*iters/4)
		}
	}
}

// TestSpanDurationHistogramEdges pins the span-duration histogram's
// edge behaviour: an untouched histogram renders its full zero bucket
// set, a sub-minimum observation lands in every cumulative bucket, an
// observation beyond the top bound lands only in +Inf (the finite
// buckets are clamped), and the tracer's OnEnd hook feeds the histogram
// under the span's metric name.
func TestSpanDurationHistogramEdges(t *testing.T) {
	s := newTestServer(t, Config{})
	scrape := func() string {
		return post(t, s.Handler(), "/metrics", "").Body.String()
	}

	// Empty: the complete unlabeled zero series, +Inf included, so
	// rate() works from the first real sample.
	out := scrape()
	for _, must := range []string{
		`spind_span_duration_seconds_bucket{le="1e-05"} 0`,
		`spind_span_duration_seconds_bucket{le="60"} 0`,
		`spind_span_duration_seconds_bucket{le="+Inf"} 0`,
		"spind_span_duration_seconds_count 0",
	} {
		if !strings.Contains(out, must) {
			t.Errorf("empty histogram render missing %q:\n%s", must, out)
		}
	}

	// Single bucket: one observation below the smallest bound shows up
	// in every cumulative bucket of its series.
	s.mSpanSeconds.With("span", "edge").Observe(5e-6)
	out = scrape()
	for _, le := range []string{"1e-05", "0.0001", "0.001", "0.01", "0.1", "0.5", "1", "5", "10", "30", "60", "+Inf"} {
		want := fmt.Sprintf(`spind_span_duration_seconds_bucket{span="edge",le=%q} 1`, le)
		if !strings.Contains(out, want) {
			t.Errorf("single-bucket render missing %q", want)
		}
	}

	// Max-clamped: an observation past the top bound increments only the
	// +Inf overflow; every finite bucket keeps its prior count.
	s.mSpanSeconds.With("span", "edge").Observe(3600)
	out = scrape()
	if !strings.Contains(out, `spind_span_duration_seconds_bucket{span="edge",le="60"} 1`) {
		t.Error("over-max observation leaked into a finite bucket")
	}
	if !strings.Contains(out, `spind_span_duration_seconds_bucket{span="edge",le="+Inf"} 2`) {
		t.Error("over-max observation missing from the +Inf overflow")
	}
	if !strings.Contains(out, `spind_span_duration_seconds_count{span="edge"} 2`) {
		t.Error("series count did not follow the observations")
	}

	// The tracer feeds the histogram on span end, under the span's name.
	root := s.tracer.StartRequest("probe", "", time.Now())
	root.StartChild("probe_child").End()
	root.End()
	for _, name := range []string{"probe", "probe_child"} {
		if n := s.mSpanSeconds.With("span", name).Count(); n != 1 {
			t.Errorf("span %s not observed under its name: count %d", name, n)
		}
	}
}

// TestRequestDurationIsTheRootSpan: a request's latency sample and its root
// span's duration are one clock reading, so the root's dur_ns in /v1/trace
// is exactly what spind_request_duration_seconds recorded for it — on a
// miss and on the alias hit after it.
func TestRequestDurationIsTheRootSpan(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	var want float64 // the series' sum, accumulated as the histogram does
	for i, cache := range []string{"miss", "hit"} {
		rec := post(t, h, "/v1/simulate", smallScenario)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != cache {
			t.Fatalf("post %d: %d, X-Cache %q; want 200, %s", i, rec.Code, rec.Header().Get("X-Cache"), cache)
		}
		tid, rootID, _ := otrace.ParseTraceparent(rec.Header().Get("Traceparent"))
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/trace/"+tid, nil))
		var doc traceResponse
		if err := json.Unmarshal(get.Body.Bytes(), &doc); err != nil || get.Code != http.StatusOK {
			t.Fatalf("GET /v1/trace/%s: %d %v", tid, get.Code, err)
		}
		var root *otrace.SpanData
		for j := range doc.Spans {
			if doc.Spans[j].SpanID == rootID {
				root = &doc.Spans[j]
			}
		}
		if root == nil {
			t.Fatalf("post %d: trace %s has no root span %s: %+v", i, tid, rootID, doc.Spans)
		}
		want += time.Duration(root.Dur).Seconds()

		var metrics bytes.Buffer
		s.reg.Render(&metrics)
		var sum float64
		var count int
		for _, line := range strings.Split(metrics.String(), "\n") {
			fmt.Sscanf(line, `spind_request_duration_seconds_sum{endpoint="simulate"} %g`, &sum)
			fmt.Sscanf(line, `spind_request_duration_seconds_count{endpoint="simulate"} %d`, &count)
		}
		if count != i+1 || sum != want {
			t.Errorf("after the %s: %d samples summing to %v s; want %d summing to %v s, the root spans' dur_ns",
				cache, count, sum, i+1, want)
		}
	}
}

// TestTraceServerEnvelope pins the ?trace=server contract: the response
// becomes a {trace_id, spans, result} envelope whose result is the
// exact simulation payload, the span tree covers the request stages,
// and the cache below stores only the inner bytes — a repeat without
// the flag is a plain hit.
func TestTraceServerEnvelope(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/simulate?trace=server", smallScenario)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc traceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("response is not a trace envelope: %v", err)
	}
	if !otrace.ValidTraceID(doc.TraceID) {
		t.Fatalf("envelope trace ID %q invalid", doc.TraceID)
	}
	names := map[string]bool{}
	for _, sp := range doc.Spans {
		if sp.TraceID != doc.TraceID {
			t.Errorf("span %s belongs to trace %s, envelope says %s", sp.Name, sp.TraceID, doc.TraceID)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"simulate", "decode", "validate", "queue_wait", "compute", "cache"} {
		if !names[want] {
			t.Errorf("envelope missing span %q (have %v)", want, names)
		}
	}
	var inner SimResponse
	if err := json.Unmarshal(doc.Result, &inner); err != nil || inner.Stats.Injected == 0 {
		t.Fatalf("envelope result is not the simulation payload: %v", err)
	}

	// The envelope is presentation-only: the cache stored the inner
	// bytes, so an untraced repeat is a hit with the plain payload.
	plain := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if got := plain.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("untraced repeat X-Cache = %q, want hit (envelope leaked into the cache)", got)
	}
	if strings.Contains(plain.Body.String(), `"trace_id"`) {
		t.Error("plain response carries the trace envelope")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, plain.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	var envCompact bytes.Buffer
	if err := json.Compact(&envCompact, doc.Result); err != nil {
		t.Fatal(err)
	}
	if compact.String() != envCompact.String() {
		t.Error("envelope result differs from the cached payload")
	}
}

// traceEnvelope posts a ?trace=server request and returns its spans by
// name plus the root span (the one whose parent is not in the envelope).
func traceEnvelope(t *testing.T, s *Server, path, body string) (map[string]otrace.SpanData, otrace.SpanData) {
	t.Helper()
	rec := post(t, s.Handler(), path+"?trace=server", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	var doc traceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: response is not a trace envelope: %v", path, err)
	}
	ids, byName := map[string]bool{}, map[string]otrace.SpanData{}
	for _, sp := range doc.Spans {
		ids[sp.SpanID] = true
		byName[sp.Name] = sp
	}
	var root otrace.SpanData
	for _, sp := range doc.Spans {
		if !ids[sp.Parent] {
			root = sp
		}
	}
	return byName, root
}

// TestSpanTreeAdditive pins the span tree's nesting: decode, validate
// and cache are the root's only children and do not overlap, so their
// durations add up to the request (within 10 % on a miss long enough for
// the gaps between them not to count); queue_wait and compute nest under
// cache. /v1/sweep goes through the same head and tail, so it shows the
// same decode and validate spans.
func TestSpanTreeAdditive(t *testing.T) {
	s := newTestServer(t, Config{})
	// The structure is checked on every attempt; the timing is a
	// measurement on a shared box, so one quiet attempt in three suffices.
	var ratios []float64
	for seed := 3; seed < 6; seed++ {
		scenario := fmt.Sprintf(`{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.1,"cycles":20000,"seed":%d}`, seed)
		spans, root := traceEnvelope(t, s, "/v1/simulate", scenario)
		var sum int64
		for name, sp := range spans {
			switch name {
			case "decode", "validate", "cache":
				if sp.Parent != root.SpanID {
					t.Errorf("%s is not a child of the root span", name)
				}
				sum += sp.Dur
			case "queue_wait", "compute":
				if sp.Parent != spans["cache"].SpanID {
					t.Errorf("%s is not nested under cache", name)
				}
			case root.Name, "encode":
			default:
				t.Errorf("unexpected span %q in a single-node miss", name)
			}
		}
		ratios = append(ratios, float64(sum)/float64(root.Dur))
		if r := ratios[len(ratios)-1]; r >= 0.9 && r <= 1.0 {
			ratios = nil
			break
		}
	}
	if ratios != nil {
		t.Errorf("top-level spans sum to %.3f of the root span, want within 10%% below it", ratios)
	}

	sweep, sweepRoot := traceEnvelope(t, s, "/v1/sweep", `{"fig":"10"}`)
	for _, name := range []string{"decode", "validate", "cache"} {
		if sp, ok := sweep[name]; !ok || sp.Parent != sweepRoot.SpanID {
			t.Errorf("/v1/sweep span tree lacks a top-level %q (have %v)", name, sweep)
		}
	}
}
