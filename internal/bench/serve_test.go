package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/serve"
)

// This file is the request rung of the bench package: what spind spends
// on one cache hit, through Handler().ServeHTTP with no socket, by the way
// the hit is found. The rows live in BENCH_serve.json beside the same rows
// measured at the parent of the commit that last changed the request path
// (before). The package reaches the rest of the tree only through its
// public API, so this directory, copied into a checkout of the parent,
// compiles there unchanged.
//
// One run's best-of-5 batch varies from run to run by more than the gate's
// slack on a shared machine, so the file is recorded from alternated runs:
// build this package's test binary at the parent, with this directory
// copied over the parent's, and at the change (go test -c at each commit);
// run the two in turn, each in its own copy of this directory, at least 5
// times apiece with -test.run TestServeRegression -update (a few seconds a
// run); then write each row's medians over the runs, the change's as ns,
// bytes and objects and the parent's as before, with the change's median
// calibration_ns.

const serveBaselineFile = "BENCH_serve.json"

// RequestRow is one kind of hit and its cost per request.
type RequestRow struct {
	Name string `json:"name"`
	Cost
	Before Cost `json:"before"`
}

// ServeReport is the BENCH_serve.json schema.
type ServeReport struct {
	Header
	Serve []RequestRow `json:"serve"`
}

func (r *ServeReport) carry(old report) {
	prev := old.(*ServeReport).Serve
	for i := range r.Serve[:min(len(r.Serve), len(prev))] {
		r.Serve[i].Before = prev[i].Before
	}
}

// sink is the smallest ResponseWriter that keeps what the rows check.
type sink struct {
	h    http.Header
	code int
	n    int
}

func (w *sink) Header() http.Header         { return w.h }
func (w *sink) WriteHeader(c int)           { w.code = c }
func (w *sink) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// requester sends bodies to one in-process spind, reusing one request and
// one writer so that a row's cost is the handler's, not the harness's.
type requester struct {
	tb   testing.TB
	h    http.Handler
	body bytes.Reader
	req  *http.Request
	w    sink
}

func newRequester(tb testing.TB, maxMem int) *requester {
	store, err := cache.Open(tb.TempDir(), maxMem)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cache: store, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	rq := &requester{tb: tb, h: srv.Handler(), w: sink{h: http.Header{}}}
	rq.req, err = http.NewRequest(http.MethodPost, "/v1/simulate", nil)
	if err != nil {
		tb.Fatal(err)
	}
	rq.req.Body = io.NopCloser(&rq.body)
	return rq
}

// twin is another requester on rq's server, for a row that sends from two
// goroutines at once.
func (rq *requester) twin() *requester {
	tw := &requester{tb: rq.tb, h: rq.h, w: sink{h: http.Header{}}}
	tw.req = rq.req.Clone(rq.req.Context())
	tw.req.Header = http.Header{}
	tw.req.Body = io.NopCloser(&tw.body)
	return tw
}

// post sends body and requires a 200 of the given X-Cache class.
func (rq *requester) post(body []byte, wantCache string) {
	if err := rq.send(body, wantCache); err != nil {
		rq.tb.Fatal(err)
	}
}

// send is post for any goroutine: it returns what post fails on.
func (rq *requester) send(body []byte, wantCache string) error {
	rq.body.Reset(body)
	rq.req.ContentLength = int64(len(body))
	clear(rq.w.h)
	rq.w.code, rq.w.n = http.StatusOK, 0
	rq.h.ServeHTTP(&rq.w, rq.req)
	if got := rq.w.h.Get("X-Cache"); rq.w.code != http.StatusOK || got != wantCache || rq.w.n == 0 {
		return fmt.Errorf("status %d, X-Cache %q, %d bytes; want 200, %q, a body", rq.w.code, got, rq.w.n, wantCache)
	}
	return nil
}

func simBody(tb testing.TB, seed int64) []byte {
	b, err := json.Marshal(serve.SimRequest{Scenario: harness.Scenario{
		Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "uniform_random", Rate: 0.2, VCsPerVNet: 3, Seed: seed, Cycles: 1000,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// requestRows builds the ways to a hit; each func sends one request, or
// one pair.
//
//	hit/alias              the same bytes again, value in the memory tier
//	hit/fullpath           a spelling the alias table does not hold (64
//	                       paddings of one request in rotation, more than an
//	                       entry remembers), value in the memory tier: decode
//	                       to key, then the lookup
//	hit/disk               two keys taking turns in a one-entry memory tier:
//	                       the full path, then the disk tier's read and
//	                       json.Valid
//	hit/alias+traceparent  hit/alias sent with one of 64 client traceparents
//	                       in rotation, so each tree continues a trace the
//	                       ring holds and files into its slot
//	hit/alias+newtrace     hit/alias sent with a client trace the ring does
//	                       not hold (1024 in rotation, four times the ring's
//	                       256 traces, each filed once), so each tree looks
//	                       for its trace in vain and takes the oldest slot
//	hit/alias|newtrace     a pair at once on one server, from two
//	                       goroutines: a hit/alias, whose tree mints its
//	                       trace, and a hit/alias+newtrace; ns per pair
func requestRows(tb testing.TB) []struct {
	name string
	next func()
} {
	mem, disk, adopt, fresh, mix := newRequester(tb, 0), newRequester(tb, 1), newRequester(tb, 0), newRequester(tb, 0), newRequester(tb, 0)
	mixFresh := mix.twin()
	one, two := simBody(tb, 1), simBody(tb, 2)
	for _, rq := range []*requester{mem, disk, adopt, fresh, mix} {
		rq.post(one, "miss")
	}
	disk.post(two, "miss")
	spellings := make([][]byte, 64)
	for i := range spellings {
		spellings[i] = append(bytes.Clone(one), strings.Repeat(" ", i+1)...)
	}
	traceparents := make([][]string, 64)
	for i := range traceparents {
		traceparents[i] = []string{fmt.Sprintf("00-%032x-%016x-01", i+1, i+1)}
	}
	newTraces := make([][]string, 1024)
	for i := range newTraces {
		newTraces[i] = []string{fmt.Sprintf("00-%032x-%016x-01", 1<<20+i, i+1)}
	}
	pairs, sent := make(chan struct{}), make(chan error)
	var m int
	go func() {
		for range pairs {
			mixFresh.req.Header["Traceparent"] = newTraces[m%len(newTraces)]
			m++
			sent <- mixFresh.send(one, "hit")
		}
	}()
	tb.Cleanup(func() { close(pairs) })
	var i, j, k, l int
	return []struct {
		name string
		next func()
	}{
		{"hit/alias", func() { mem.post(one, "hit") }},
		{"hit/fullpath", func() { mem.post(spellings[i%len(spellings)], "hit"); i++ }},
		{"hit/disk", func() { disk.post([][]byte{one, two}[j%2], "hit"); j++ }},
		{"hit/alias+traceparent", func() {
			adopt.req.Header["Traceparent"] = traceparents[k%len(traceparents)]
			adopt.post(one, "hit")
			k++
		}},
		{"hit/alias+newtrace", func() {
			fresh.req.Header["Traceparent"] = newTraces[l%len(newTraces)]
			fresh.post(one, "hit")
			l++
		}},
		{"hit/alias|newtrace", func() {
			pairs <- struct{}{}
			mix.post(one, "hit")
			if err := <-sent; err != nil {
				tb.Fatal(err)
			}
		}},
	}
}

// measureRequests is the serve block: per row, after a batch that settles
// its rotation and every lazy bind, one batch a round.
func measureRequests(tb testing.TB, rounds int) []RequestRow {
	const batch = 2000
	rs := requestRows(tb)
	ops := make([]op, len(rs))
	for i, r := range rs {
		ops[i].run = func() (float64, error) {
			for n := 0; n < batch; n++ {
				r.next()
			}
			return batch, nil
		}
		ops[i].run()
	}
	samples, _ := measure(rounds, ops) // a row fails the test, not the op
	rows := make([]RequestRow, len(rs))
	for i, r := range rs {
		rows[i] = RequestRow{Name: r.name, Cost: samples[i].Cost}
	}
	return rows
}

// TestServeRegression is the serve block's gate, apart from the simulator
// rows so that measuring it takes seconds, under serveLimits and
// TestBenchRegression's advisory-unless-BENCH_STRICT rule. With -update it
// rewrites BENCH_serve.json, carrying each row's before over.
func TestServeRegression(t *testing.T) {
	skipGate(t)
	cur := ServeReport{Header: Header{Schema, runtime.Version(), Calibrate()}, Serve: measureRequests(t, 5)}
	var base ServeReport
	scale := baseline(t, serveBaselineFile, &cur, &base)
	if scale == 0 {
		return
	}
	if len(base.Serve) != len(cur.Serve) {
		t.Fatalf("%s: out of date; run with -update", serveBaselineFile)
	}
	for i, got := range cur.Serve {
		gate(t, got.Name, "", serveLimits.costBounds(got.Cost, base.Serve[i].Cost, scale, "")...)
	}
}

// hitAllocBudget is the ceiling on heap objects per alias hit, harness
// included (it reuses its request and writer and its header map's
// entries): the 4 an alias hit costs, and one of slack. The parent of the
// commit that introduced the alias spent 100; before span IDs were
// rendered only when read, a hit spent 22; before its request ID and
// traceparent were one string, 5.
const hitAllocBudget = 5

// TestHitAllocBudget pins what a repeated body costs in objects, four:
// the request's writer, the one string holding its request ID and
// traceparent, its span tree, and the body's size limit — and no decode,
// no digest string, no per-span ID string, no header value built per
// request, no label maps, no request copy.
func TestHitAllocBudget(t *testing.T) {
	skipUnderRace(t)
	alias := requestRows(t)[0]
	alias.next()
	if avg := testing.AllocsPerRun(2000, alias.next); avg > hitAllocBudget {
		t.Errorf("%s allocates %.1f objects per request, budget %d", alias.name, avg, hitAllocBudget)
	}
}

// BenchmarkRequest exposes the serve block to `go test -bench`.
func BenchmarkRequest(b *testing.B) {
	for _, r := range requestRows(b) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.next()
			}
		})
	}
}
