package main

import (
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"testing"

	"repro/internal/cache"
	"repro/internal/serve"
)

// TestPprofRoutingMatchesOneMux sends requests through withPprof and
// through one http.ServeMux holding both the API handler (at /) and the
// pprof handlers, as spind built its handler before withPprof. Each
// request must get the same status, Location and Content-Type from both,
// and the same body wherever the body does not describe the live process
// (the pprof index counts goroutines and heap samples).
func TestPprofRoutingMatchesOneMux(t *testing.T) {
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cache: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	api := srv.Handler()

	one := http.NewServeMux()
	one.Handle("/", api)
	one.HandleFunc("/debug/pprof/", pprof.Index)
	one.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	one.HandleFunc("/debug/pprof/profile", pprof.Profile)
	one.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	one.HandleFunc("/debug/pprof/trace", pprof.Trace)
	split := withPprof(api)

	for _, c := range []struct {
		method, target string
		live           bool
	}{
		{"GET", "/debug/pprof", false},
		{"GET", "/debug/pprof/", true},
		{"GET", "/debug/pprof/cmdline", false},
		{"GET", "/debug/pprof/symbol", false},
		{"GET", "/debug/pprof/nope", false},
		{"GET", "/debug/pprofx", false},
		{"GET", "/debug/pprof//cmdline", false},
		{"GET", "//debug/pprof/", false},
		{"GET", "/v1/../debug/pprof/", false},
		{"GET", "/debug/./pprof/", false},
		{"GET", "/debug", false},
		{"GET", "/v1/simulate", false},
		{"POST", "/v1/simulate", false},
		{"GET", "/v1/version", false},
		{"GET", "/healthz", false},
		{"GET", "/nope", false},
		{"OPTIONS", "*", false},
	} {
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{one, split} {
			r := httptest.NewRequest(c.method, c.target, nil)
			r.Header.Set("X-Request-Id", "t") // an API error body names it
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], r)
		}
		want, have := got[0], got[1]
		if have.Code != want.Code || have.Header().Get("Location") != want.Header().Get("Location") ||
			have.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s %s: withPprof answered %d (Location %q, %s), one mux %d (Location %q, %s)",
				c.method, c.target, have.Code, have.Header().Get("Location"), have.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Location"), want.Header().Get("Content-Type"))
			continue
		}
		if !c.live && have.Body.String() != want.Body.String() {
			t.Errorf("%s %s: bodies differ:\nwithPprof %q\none mux   %q", c.method, c.target, have.Body, want.Body)
		}
	}
}
