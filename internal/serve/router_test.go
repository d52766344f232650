package serve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/otrace"
	"repro/internal/prom"
)

// TestRoutesMatchServeMux sends a table of method × request target to
// Server.Handler() and to a reference http.ServeMux holding the seven
// patterns the server registers, with stub handlers. Where the reference
// reaches a stub, the server must reach the same handler; where the
// reference answers itself (a 301 to a clean path or a trailing slash, a
// 404, the 400 for *), the server must answer the same status, Location
// and body.
func TestRoutesMatchServeMux(t *testing.T) {
	srv := newTestServer(t, Config{})
	ref := http.NewServeMux()
	for pattern, name := range map[string]string{
		"/v1/simulate": "simulate",
		"/v1/sweep":    "sweep",
		"/v1/trace/":   "trace",
		"/v1/version":  "version",
		"/healthz":     "healthz",
		"/readyz":      "readyz",
		"/metrics":     "metrics",
	} {
		ref.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Route", name)
		})
	}
	// reached names the server's handler that answered: an instrumented
	// endpoint by its request's root span, /metrics and /readyz by their
	// bodies; "" when the mux answered itself.
	reached := func(rec *httptest.ResponseRecorder) string {
		if tid, _, ok := otrace.ParseTraceparent(rec.Header().Get("Traceparent")); ok {
			for _, d := range srv.tracer.Trace(tid) {
				if d.Parent == "" {
					return d.Name
				}
			}
			return "an unfiled root"
		}
		switch {
		case rec.Header().Get("Content-Type") == prom.ContentType:
			return "metrics"
		case strings.Contains(rec.Body.String(), `"status":"ready"`):
			return "readyz"
		}
		return ""
	}
	send := func(h http.Handler, raw string) *httptest.ResponseRecorder {
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	targets := []string{
		"/v1/simulate", "/v1/sweep", "/v1/version", "/healthz", "/readyz", "/metrics",
		"/v1/simulate/", "/v1/sweep/", "/v1/version/", "/healthz/", "/readyz/", "/metrics/",
		"/v1/trace", "/v1/trace/", "/v1/trace/" + strings.Repeat("ab", 16), "/v1/trace/nothex", "/v1/trace/a/b",
		"//v1/simulate", "/v1/./sweep", "/v1/../healthz", "/healthz/.", "/v1//version", "/./metrics",
		"/v1/%73imulate", "/%72eadyz", "/v1%2Fsimulate", "/v1/trace%2F" + strings.Repeat("ab", 16),
		"/metrics?x=1", "/v1/simulate?trace=server", "//v1/sweep?stream=sse",
		"/", "/nope", "/v1", "/v1/", "/V1/SIMULATE", "/healthzz", "/v1/simulatex",
	}
	var requests []string
	for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodHead, http.MethodConnect} {
		for _, target := range targets {
			requests = append(requests, method+" "+target)
		}
	}
	requests = append(requests, "OPTIONS *", "GET *", "CONNECT spind:8080")

	for _, line := range requests {
		raw := line + " HTTP/1.1\r\nHost: spind\r\nContent-Length: 0\r\n\r\n"
		want, got := send(ref, raw), send(srv.Handler(), raw)
		wantName, gotName := want.Header().Get("X-Route"), reached(got)
		if wantName != gotName {
			t.Errorf("%s: reached %q, the mux reaches %q", line, gotName, wantName)
			continue
		}
		if wantName != "" {
			continue // a stub's answer is its own
		}
		if got.Code != want.Code || got.Header().Get("Location") != want.Header().Get("Location") || got.Body.String() != want.Body.String() {
			t.Errorf("%s: %d Location %q body %q, the mux answers %d Location %q body %q", line,
				got.Code, got.Header().Get("Location"), got.Body.String(),
				want.Code, want.Header().Get("Location"), want.Body.String())
		}
	}
}
