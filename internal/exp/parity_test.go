package exp_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// headline is what every entry point must agree on for one scenario.
type headline struct {
	Injected, Ejected, MaxLatency, Spins int64
	AvgLatency                           float64
}

func headlineOf(st *sim.Stats) headline {
	return headline{st.Injected, st.Ejected, st.MaxLatency, st.Spins, st.AvgLatency()}
}

// parityScenarios covers the four traffic sources a scenario can carry.
func parityScenarios(t *testing.T) map[string]harness.Scenario {
	base := harness.Scenario{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", Seed: 5, TDD: 32, Cycles: 1500, Warmup: 100}
	synthetic, closed, injections, trace := base, base, base, base
	synthetic.Traffic, synthetic.Rate = "uniform_random", 0.35
	closed.Traffic, closed.Rate = "uniform_random", 0.3
	closed.Workload = &workload.Spec{Mode: "closed", Window: 4, Think: 4}
	var buf bytes.Buffer
	tw := traffic.NewTraceWriter(&buf)
	for i := 0; i < 400; i++ {
		src := i % 16
		e := traffic.TraceEntry{Cycle: int64(i / 2), Src: src, Dst: (src + 1 + i%15) % 16, Length: 1 + 4*(i%2)}
		injections.Injections = append(injections.Injections, e)
		if err := tw.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	trace.TraceB64 = base64.StdEncoding.EncodeToString(buf.Bytes())
	trace.DrainCycles = 5000 // the serving path drains; its stats must still be the pre-drain ones
	return map[string]harness.Scenario{"synthetic": synthetic, "closed-loop": closed, "injections": injections, "trace": trace}
}

// TestRunPathParity is the one-driver contract seen from outside: the
// same scenario through harness.Drive directly (unchunked and windowed),
// through spind's /v1/simulate, and through a sweep point yields the
// same packets, latency and spins.
func TestRunPathParity(t *testing.T) {
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cache: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for name, sc := range parityScenarios(t) {
		t.Run(name, func(t *testing.T) {
			drive := func(ob harness.Observe) *harness.Result {
				s, err := sc.Sim()
				if err != nil {
					t.Fatal(err)
				}
				res, err := harness.Drive(ctx, sc, s.Network(), ob)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			direct := drive(harness.Observe{Hist: true, Drain: sc.DrainCycles > 0})
			want := headlineOf(&direct.Stats)
			if want.Ejected == 0 || want.AvgLatency == 0 || (name == "synthetic" && want.Spins == 0) {
				t.Fatalf("scenario exercises too little to compare: %+v", want)
			}

			windows := 0
			chunked := drive(harness.Observe{Hist: true, Drain: sc.DrainCycles > 0, Window: 37,
				OnWindow: func(int64, []sim.WindowSample) { windows++ }})
			if got := headlineOf(&chunked.Stats); got != want || *chunked.Latency != *direct.Latency {
				t.Errorf("windowed stepping diverged:\n got %+v %+v\nwant %+v %+v", got, *chunked.Latency, want, *direct.Latency)
			}
			if windows != int((sc.Cycles+36)/37) {
				t.Errorf("window callback ran %d times over %d cycles of 37", windows, sc.Cycles)
			}

			body, err := json.Marshal(serve.SimRequest{Scenario: sc})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("/v1/simulate: status %d, body %s", rec.Code, rec.Body)
			}
			var resp serve.SimResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			st := resp.Stats
			if got := (headline{st.Injected, st.Ejected, st.MaxLatency, st.Spins, st.AvgLatency}); got != want {
				t.Errorf("/v1/simulate diverged:\n got %+v\nwant %+v", got, want)
			}

			s, err := sc.Sim()
			if err != nil {
				t.Fatal(err)
			}
			point, err := exp.DrivePoint(exp.Options{Cycles: sc.Cycles}, ctx, sc, s.Network(), true)
			if err != nil {
				t.Fatal(err)
			}
			if got := headlineOf(&point.Stats); got != want {
				t.Errorf("sweep point diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
