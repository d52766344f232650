package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/traffic"
)

// closedScenario is a closed-loop client scenario sized for test latency.
const closedScenario = `{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.3,"cycles":800,"seed":3,"workload":{"mode":"closed","window":4,"req_len":1,"resp_len":1,"think":4}}`

// TestSimulateWorkloadDeterministic pins the serving half of the
// closed-loop determinism contract: the same workload scenario, executed
// on two independent servers, renders byte-identical response bodies (and
// therefore identical cache entries).
func TestSimulateWorkloadDeterministic(t *testing.T) {
	bodies := make([][]byte, 0, 2)
	for range 2 {
		s := newTestServer(t, Config{Workers: 1})
		rec := post(t, s.Handler(), "/v1/simulate", closedScenario)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", rec.Code, rec.Body)
		}
		var resp SimResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Injected == 0 || resp.Stats.Ejected == 0 {
			t.Fatalf("closed loop moved no traffic: %+v", resp.Stats)
		}
		if resp.Request.VNets < 2 {
			t.Fatalf("normalization did not reserve a reply vnet: %+v", resp.Request)
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("workload response bytes differ between two servers")
	}
}

// testTraceB64 encodes a small spintrace-v1 workload for trace-replay
// requests. Seed varies the destinations so different seeds yield
// different trace bytes, hence different content addresses.
func testTraceB64(t *testing.T, entries int, seed int) string {
	t.Helper()
	var buf bytes.Buffer
	tw := traffic.NewTraceWriter(&buf)
	for i := 0; i < entries; i++ {
		src := i % 16
		dst := (src + 1 + (i+seed)%15) % 16
		if dst == src {
			dst = (dst + 1) % 16
		}
		e := traffic.TraceEntry{Cycle: int64(i / 4), Src: src, Dst: dst, Length: 1 + i%5, VNet: 0}
		if err := tw.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// TestSimulateTraceContentAddressed checks the trace-replay request
// path: a binary trace uploaded through /v1/simulate runs (miss),
// replays byte-identically from the cache (hit), and a different trace
// — same everything else — lands on a different content address.
func TestSimulateTraceContentAddressed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := func(seed int) string {
		return fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"","rate":0,"cycles":400,"drain_cycles":4000,"seed":9,"trace_b64":%q}`, testTraceB64(t, 64, seed))
	}
	first := post(t, s.Handler(), "/v1/simulate", body(0))
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	var resp SimResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Injected != 64 {
		t.Fatalf("replayed %d packets, want 64", resp.Stats.Injected)
	}
	if resp.Stats.Drained == nil || !*resp.Stats.Drained {
		t.Fatalf("trace replay did not drain: %+v", resp.Stats)
	}

	second := post(t, s.Handler(), "/v1/simulate", body(0))
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("trace cache hit is not byte-identical")
	}

	other := post(t, s.Handler(), "/v1/simulate", body(7))
	if got := other.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("different trace X-Cache = %q, want miss", got)
	}
	if other.Header().Get("X-Cache-Key") == first.Header().Get("X-Cache-Key") {
		t.Fatal("different trace bytes mapped to the same content address")
	}
}

// TestSimulateRejectsCorruptTrace checks that a bit-flipped trace is
// rejected at validation time with a 4xx, before any cache interaction.
func TestSimulateRejectsCorruptTrace(t *testing.T) {
	s := newTestServer(t, Config{})
	good := testTraceB64(t, 32, 0)
	raw, err := base64.StdEncoding.DecodeString(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	corrupt := base64.StdEncoding.EncodeToString(raw)
	rec := post(t, s.Handler(), "/v1/simulate",
		fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"","rate":0,"cycles":100,"seed":1,"trace_b64":%q}`, corrupt))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt trace: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

// TestSimulateRejectsTraceOutsideTopology is the poisoned-cache
// regression: a structurally valid trace whose entry names a terminal
// the topology does not have stops the stream mid-run. That must answer
// 400 — not 200 with truncated stats — and must never enter the cache,
// so the repeat is rejected again instead of being served as a hit. An
// injections list the engine cannot host (a 7-flit packet: inside
// vc_depth 8, beyond the engine's 5-flit cap) gets the same answer, not
// a 500 from a panicked job.
func TestSimulateRejectsTraceOutsideTopology(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var buf bytes.Buffer
	tw := traffic.NewTraceWriter(&buf)
	for _, e := range []traffic.TraceEntry{
		{Cycle: 0, Src: 0, Dst: 5, Length: 1},
		{Cycle: 2, Src: 100, Dst: 3, Length: 1}, // mesh:4x4 has 16 terminals
	} {
		if err := tw.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"trace_b64": fmt.Sprintf(`{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"","rate":0,"cycles":100,"seed":1,"trace_b64":%q}`,
			base64.StdEncoding.EncodeToString(buf.Bytes())),
		"injections": `{"topology":"mesh:4x4","routing":"xy","cycles":100,"vc_depth":8,"injections":[{"cycle":0,"src":0,"dst":5,"length":7,"vnet":0}]}`,
	} {
		for attempt := 1; attempt <= 2; attempt++ {
			rec := post(t, s.Handler(), "/v1/simulate", body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s, attempt %d: status %d (X-Cache %q), want 400; body %s",
					name, attempt, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
			}
		}
	}
	if st := s.Snapshot(); st.Hits != 0 || st.MemEntries != 0 {
		t.Fatalf("rejected trace reached the cache: %+v", st)
	}
}
