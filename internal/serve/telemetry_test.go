package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/otrace"
	"repro/internal/sim"
)

// TestSimulateTelemetryResponse exercises the opt-in telemetry path: a
// request with telemetry gets latency percentiles and a windowed
// time-series, the same request without telemetry gets neither, and
// every executed request feeds the simulator-level Prometheus series.
func TestSimulateTelemetryResponse(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1,"telemetry":true,"epoch":250}`
	rec := post(t, s.Handler(), "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SimResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Latency == nil || resp.TimeSeries == nil {
		t.Fatalf("telemetry request missing latency/time_series: %s", rec.Body.String())
	}
	if resp.Latency.Count <= 0 || resp.Latency.Count != resp.Stats.Ejected {
		t.Errorf("latency count %d != ejected %d", resp.Latency.Count, resp.Stats.Ejected)
	}
	if !(resp.Latency.P50 <= resp.Latency.P95 && resp.Latency.P95 <= resp.Latency.P99) {
		t.Errorf("percentiles not monotone: %+v", resp.Latency)
	}
	if resp.TimeSeries.Schema != sim.TimeSeriesSchema || resp.TimeSeries.Window != 250 {
		t.Errorf("bad time-series header: %+v", resp.TimeSeries)
	}
	if len(resp.TimeSeries.Samples) == 0 {
		t.Error("time-series has no windows")
	}
	// Epoch normalisation: request echo carries the canonical form.
	if resp.Request.Epoch != 250 || !resp.Request.Telemetry {
		t.Errorf("request echo lost telemetry knobs: %+v", resp.Request)
	}

	// The same scenario without telemetry must not leak the new fields,
	// and must hash to a different cache key.
	plain := post(t, s.Handler(), "/v1/simulate", strings.Replace(body, `,"telemetry":true,"epoch":250`, "", 1))
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status %d: %s", plain.Code, plain.Body.String())
	}
	for _, banned := range []string{`"latency"`, `"time_series"`, `"p95"`} {
		if strings.Contains(plain.Body.String(), banned) {
			t.Errorf("telemetry-free response leaks %s", banned)
		}
	}
	if a, b := rec.Header().Get("X-Cache-Key"), plain.Header().Get("X-Cache-Key"); a == b {
		t.Error("telemetry and plain requests share a cache key")
	}

	// Both requests executed a simulator, so the simulator-level series
	// must exist with real samples.
	mrec := post(t, s.Handler(), "/metrics", "")
	metrics := mrec.Body.String()
	for _, must := range []string{
		"spind_sim_spins_total",
		"spind_sim_recoveries_total",
		"spind_sim_probes_total",
		"spind_sim_kill_moves_total",
		"spind_sim_deadlock_firings_total",
		`spind_sim_packet_latency_cycles_bucket{quantile="p50",le="+Inf"}`,
	} {
		if !strings.Contains(metrics, must) {
			t.Errorf("/metrics missing %s", must)
		}
	}
	if s.mSimLatency.With("quantile", "p95").Count() != 2 {
		t.Errorf("p95 series observed %d times, want 2 (one per executed request)",
			s.mSimLatency.With("quantile", "p95").Count())
	}
}

// TestSimulateEpochValidation pins the serving-side epoch rules.
func TestSimulateEpochValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/simulate",
		`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":1000,"seed":1,"epoch":-5}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative epoch: status %d", rec.Code)
	}
	// Epoch without telemetry is scrubbed: the request hits the same
	// cache entry as the bare scenario.
	a := SimRequest{Scenario: mustScenario(t, smallScenario), Epoch: 500}.canonical()
	b := SimRequest{Scenario: mustScenario(t, smallScenario)}.canonical()
	if string(a) != string(b) {
		t.Errorf("epoch without telemetry changes canonical form:\n%s\n%s", a, b)
	}
	// Telemetry defaults its epoch to 100.
	c := SimRequest{Scenario: mustScenario(t, smallScenario), Telemetry: true}.canonical()
	d := SimRequest{Scenario: mustScenario(t, smallScenario), Telemetry: true, Epoch: 100}.canonical()
	if string(c) != string(d) {
		t.Errorf("default epoch spellings diverge:\n%s\n%s", c, d)
	}
}

// reqRecord is the decoded shape of one structured request log record.
type reqRecord struct {
	Msg      string `json:"msg"`
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Code     int    `json:"code"`
	Cache    string `json:"cache"`
	Key      string `json:"key"`
	Trace    string `json:"trace"`
	Span     string `json:"span"`
}

// TestRequestLogging covers the structured per-request log record: one
// JSON object per request carrying the ID (echoed in the X-Request-ID
// header), endpoint, status, cache outcome, job key, and the trace/span
// IDs; and error bodies referencing the same ID.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{Log: slog.New(slog.NewJSONHandler(&buf, nil))})

	miss := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss status %d: %s", miss.Code, miss.Body.String())
	}
	hit := post(t, s.Handler(), "/v1/simulate", smallScenario)
	if hit.Code != http.StatusOK {
		t.Fatalf("hit status %d", hit.Code)
	}
	bad := post(t, s.Handler(), "/v1/simulate", "{nope")
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad status %d", bad.Code)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 log records, got %d:\n%s", len(lines), buf.String())
	}
	recs := make([]reqRecord, len(lines))
	hexID := regexp.MustCompile(`^[0-9a-f]{32}$`)
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &recs[i]); err != nil {
			t.Fatalf("record %d is not JSON: %q (%v)", i, l, err)
		}
		if recs[i].Msg != "request" || recs[i].Endpoint != "simulate" || recs[i].ID == "" {
			t.Errorf("record %d malformed: %+v", i, recs[i])
		}
		if !hexID.MatchString(recs[i].Trace) || len(recs[i].Span) != 16 {
			t.Errorf("record %d lacks trace/span IDs: %+v", i, recs[i])
		}
	}
	keyed := regexp.MustCompile(`^[0-9a-f]{64}$`)
	if recs[0].Code != 200 || recs[0].Cache != "miss" || !keyed.MatchString(recs[0].Key) {
		t.Errorf("miss record wrong: %+v", recs[0])
	}
	if recs[1].Code != 200 || recs[1].Cache != "hit" || !keyed.MatchString(recs[1].Key) {
		t.Errorf("hit record wrong: %+v", recs[1])
	}
	if recs[2].Code != 400 || recs[2].Cache != "-" || recs[2].Key != "-" {
		t.Errorf("reject record wrong: %+v", recs[2])
	}

	// The header ID, the log-record ID, and the error-body ID all agree.
	badID := bad.Header().Get("X-Request-ID")
	if badID == "" {
		t.Fatal("no X-Request-ID header")
	}
	if recs[2].ID != badID {
		t.Errorf("log record carries ID %s, header says %s", recs[2].ID, badID)
	}
	if !strings.Contains(bad.Body.String(), "(request "+badID+")") {
		t.Errorf("error body does not echo request ID: %q", bad.Body.String())
	}
	missID, hitID := miss.Header().Get("X-Request-ID"), hit.Header().Get("X-Request-ID")
	if missID == hitID {
		t.Error("request IDs repeat")
	}

	// A client's correlation ID and trace context are adopted: the ID is
	// echoed and logged, the record names the client's trace, and the
	// server's root span is a child of the client's span.
	const (
		clientID     = "e2e-corr-0042"
		clientTrace  = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientParent = "00f067aa0ba902b7"
	)
	buf.Reset()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(smallScenario))
	req.Header.Set("X-Request-ID", clientID)
	req.Header.Set("traceparent", "00-"+clientTrace+"-"+clientParent+"-01")
	adopted := httptest.NewRecorder()
	s.Handler().ServeHTTP(adopted, req)
	if adopted.Code != http.StatusOK {
		t.Fatalf("adopted status %d: %s", adopted.Code, adopted.Body.String())
	}
	if got := adopted.Header().Get("X-Request-ID"); got != clientID {
		t.Errorf("X-Request-ID = %q, want the client's %q", got, clientID)
	}
	var rec reqRecord
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("adopted record is not one JSON object: %q (%v)", buf.String(), err)
	}
	if rec.ID != clientID || rec.Trace != clientTrace {
		t.Errorf("adopted record id=%q trace=%q, want %q and %q", rec.ID, rec.Trace, clientID, clientTrace)
	}
	if tid, _, _ := otrace.ParseTraceparent(adopted.Header().Get("traceparent")); tid != clientTrace {
		t.Errorf("response traceparent %q does not continue the client's trace", adopted.Header().Get("traceparent"))
	}
	trace := httptest.NewRecorder()
	s.Handler().ServeHTTP(trace, httptest.NewRequest(http.MethodGet, "/v1/trace/"+clientTrace, nil))
	var doc traceResponse
	if err := json.Unmarshal(trace.Body.Bytes(), &doc); err != nil {
		t.Fatalf("GET /v1/trace/%s: status %d: %v", clientTrace, trace.Code, err)
	}
	var root *otrace.SpanData
	for i, sp := range doc.Spans {
		if sp.Name == "simulate" {
			root = &doc.Spans[i]
		}
	}
	if root == nil || root.Parent != clientParent || root.SpanID != rec.Span {
		t.Errorf("server root span %+v, want the logged span %s under the client's span %s", root, rec.Span, clientParent)
	}
}

// TestRequestBodyIsOneDocument: both POST endpoints read their body with
// the same strict decoder, so a second document or stray bytes after the
// request are a 400 on either, while trailing whitespace is fine.
func TestRequestBodyIsOneDocument(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, ep := range []struct{ path, body string }{
		{"/v1/simulate", smallScenario},
		{"/v1/sweep", `{"fig":"10"}`},
	} {
		for _, tc := range []struct {
			name, suffix string
			want         int
		}{
			{"second document", ep.body, http.StatusBadRequest},
			{"stray token", " x", http.StatusBadRequest},
			{"trailing whitespace", " \n\t\n", http.StatusOK},
			{"nothing", "", http.StatusOK},
		} {
			if rec := post(t, s.Handler(), ep.path, ep.body+tc.suffix); rec.Code != tc.want {
				t.Errorf("%s with %s after the body: status %d, want %d", ep.path, tc.name, rec.Code, tc.want)
			}
		}
	}
}

// TestDeadlockFiringsMetric pins spind_sim_deadlock_firings_total for a
// fixed checked request: the checker's own count of oracle samples that
// found a deadlock must equal the number of oracle_deadlock events the
// run emits, 117 here (the value an event-counting probe reads).
func TestDeadlockFiringsMetric(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/simulate",
		`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.5,"vcs_per_vnet":1,"cycles":4000,"seed":3,"check":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	metrics := post(t, s.Handler(), "/metrics", "").Body.String()
	if !strings.Contains(metrics, "\nspind_sim_deadlock_firings_total 117\n") {
		t.Errorf("/metrics lacks spind_sim_deadlock_firings_total 117:\n%s",
			regexp.MustCompile(`(?m)^spind_sim_deadlock_firings_total.*$`).FindString(metrics))
	}
}
