package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/otrace"
	"repro/internal/runner"
	"repro/internal/serve"
)

// Shape of the serve_mix traffic. Two closed-loop clients with zero think
// time send /v1/simulate requests straight into Handler().ServeHTTP (no
// sockets). One request in missEvery carries a seed no one has sent
// before, so it misses, simulates and fills the cache; every
// checkedEvery-th of those asks for the invariant checker and telemetry.
// The rest are hits drawn Zipf(zipfS) from hotKeys keys pre-warmed in
// set-up; the hot set is twice the memory tier, so part of the hits come
// from the disk tier. Every bigEvery-th rank holds a checked+telemetry
// response (~17 KB against ~600 B): fixed ranks, so every seed sees the
// same mix and only the contents and the order change.
//
// Misses are small (1000 cycles) so that hits, plain misses and checked
// misses each take about a third of the CPU and none hides the others.
const (
	hotKeys      = 256
	bigEvery     = 32
	missEvery    = 200
	checkedEvery = 10
	zipfS        = 1.1
	missCycles   = 1000
	warmRequests = 5000 // per client, after pre-warm, to settle the LRU
)

type class int

const (
	classHit class = iota
	classHitBig
	classMiss
	classMissChecked
	numClasses
)

var classSpan = [numClasses]string{"serve.hit", "serve.hit_big", "serve.miss", "serve.miss_checked"}

// simBody is the JSON body of one /v1/simulate request.
func simBody(seed int64, checked bool, cycles int64) []byte {
	req := serve.SimRequest{Scenario: harness.Scenario{
		Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "uniform_random", Rate: 0.2, VCsPerVNet: 3, Seed: seed, Cycles: cycles,
	}}
	if checked {
		req.Topology = "mesh:8x8"
		req.Check, req.Telemetry, req.Epoch = true, true, 20
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return b
}

// hotKey is one pre-warmed request and the response it must keep getting.
type hotKey struct {
	req, resp []byte
	big       bool
}

// respWriter is the smallest http.ResponseWriter that keeps what the
// checks need; one per client, reset between requests.
type respWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *respWriter) reset() {
	clear(w.h)
	w.code, w.body = http.StatusOK, w.body[:0]
}

// period is the unit the serve timings repeat over: the requests from
// one checked miss of a client's schedule to the next — period-1 hits and
// plain misses, then one checked miss. Every period is the same mix of
// work and lasts ~0.15 s, so the best of a run's periods (see best in
// measure.go) needs only that much quiet.
const period = missEvery * checkedEvery

// mark is a client's position at a period boundary.
type mark struct {
	at   time.Time
	hits int // len(lat[classHit])
}

// missRecord remembers a miss so the end-of-run check can ask again.
type missRecord struct {
	req     []byte
	sha     [sha256.Size]byte
	checked bool
}

// client is one closed-loop load generator.
type client struct {
	id     int
	seed   int64
	cycles int64
	h      http.Handler
	hot    []hotKey
	zipf   *rand.Zipf
	rec    *recorder
	parent int
	w      respWriter

	n      int64 // requests sent so far; drives the miss schedule
	lat    [numClasses][]int32
	marks  []mark // one per period boundary crossed in the current run
	misses []missRecord
	out    *outcome // per-client, merged after the run
}

func newClient(id int, c config, h http.Handler, hot []hotKey) *client {
	cl := &client{id: id, seed: c.seed, cycles: c.cycles(missCycles), h: h, hot: hot, out: newOutcome(), parent: -1}
	cl.zipf = rand.NewZipf(rand.New(rand.NewSource(c.seed*10+int64(id))), zipfS, 1, uint64(len(hot)-1))
	cl.w.h = http.Header{}
	return cl
}

// reserve pre-sizes the latency slices for capacity requests, so they do
// not grow while requests are timed.
func (cl *client) reserve(capacity int) {
	cl.lat[classHit] = make([]int32, 0, capacity)
	cl.lat[classHitBig] = make([]int32, 0, capacity/16)
	cl.lat[classMiss] = make([]int32, 0, capacity/missEvery*2)
	cl.lat[classMissChecked] = make([]int32, 0, capacity/missEvery)
	cl.misses = make([]missRecord, 0, capacity/missEvery*2)
}

// do sends one request and returns how long ServeHTTP took.
func (cl *client) do(target string, body []byte, span string) time.Duration {
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		panic(err) // the targets are constants
	}
	cl.w.reset()
	id := cl.rec.begin(span, cl.parent)
	t0 := time.Now()
	cl.h.ServeHTTP(&cl.w, req)
	d := time.Since(t0)
	cl.rec.end(id)
	return d
}

// check counts the request just answered as an op and fails it unless the
// status is 200, X-Cache is the class the schedule expects and — for a
// repeated key — the bytes are the ones it returned before.
func (cl *client) check(wantCache string, wantBody []byte) {
	switch got := cl.w.h.Get("X-Cache"); {
	case cl.w.code != http.StatusOK:
		cl.out.op(fmt.Sprintf("request %d: status %d: %s", cl.n, cl.w.code, cl.w.body))
	case got != wantCache:
		cl.out.op(fmt.Sprintf("request %d: X-Cache %q, schedule expects %q", cl.n, got, wantCache))
	case wantBody != nil && !bytes.Equal(cl.w.body, wantBody):
		cl.out.op(fmt.Sprintf("request %d: a repeated key returned different bytes", cl.n))
	default:
		cl.out.op("")
	}
}

// next sends the schedule's next request.
func (cl *client) next() {
	cl.n++
	if cl.n%missEvery != 0 {
		k := &cl.hot[cl.zipf.Uint64()]
		cls := classHit
		if k.big {
			cls = classHitBig
		}
		d := cl.do("/v1/simulate", k.req, classSpan[cls])
		cl.check("hit", k.resp)
		cl.lat[cls] = append(cl.lat[cls], int32(d))
		return
	}
	seq := cl.n / missEvery
	checked := seq%checkedEvery == 0
	cls := classMiss
	if checked {
		cls = classMissChecked
	}
	// Seeds no hot key and no other client uses.
	body := simBody(cl.seed*1_000_000+int64(cl.id+1)*100_000+seq, checked, cl.cycles)
	d := cl.do("/v1/simulate", body, classSpan[cls])
	cl.check("miss", nil)
	cl.lat[cls] = append(cl.lat[cls], int32(d))
	cl.misses = append(cl.misses, missRecord{req: body, sha: sha256.Sum256(cl.w.body), checked: checked})
}

// recheckMisses asks again for every miss of the run: now a hit, the same
// bytes, and for a checked request a clean checker verdict.
func (cl *client) recheckMisses() {
	for _, m := range cl.misses {
		cl.do("/v1/simulate", m.req, "recheck")
		reason := ""
		switch {
		case cl.w.code != http.StatusOK || cl.w.h.Get("X-Cache") != "hit":
			reason = fmt.Sprintf("miss asked again: status %d, X-Cache %q", cl.w.code, cl.w.h.Get("X-Cache"))
		case sha256.Sum256(cl.w.body) != m.sha:
			reason = "miss asked again returned different bytes"
		case m.checked:
			var resp serve.SimResponse
			if err := json.Unmarshal(cl.w.body, &resp); err != nil {
				reason = "checked response does not decode: " + err.Error()
			} else if resp.Check == nil || !resp.Check.OK {
				reason = "the invariant checker reported a violation"
			}
		}
		if reason != "" {
			cl.out.fail(reason)
		}
	}
	cl.misses = cl.misses[:0]
}

// server is one in-process spind on a scratch cache directory.
type server struct {
	dir string
	srv *serve.Server
}

func (s *server) close() {
	if s == nil {
		return
	}
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// setupServe builds the server, the hot keys and the clients, pre-warms
// every hot key (each must miss once) and settles the LRU.
func setupServe(c config) (*server, []*client, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(c.outDir, "spind-cache-")
	if err != nil {
		return nil, nil, err
	}
	keys := max(int(hotKeys*c.scale), 16)
	store, err := cache.Open(dir, keys/2)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{Cache: store, Workers: loadGoroutines})
	if err != nil {
		return nil, nil, err
	}
	s := &server{dir, srv}
	hot := make([]hotKey, keys)
	every := min(bigEvery, keys/2)
	for i := range hot {
		hot[i].big = i%every == every-1
		hot[i].req = simBody(c.seed*1_000_000+int64(i), hot[i].big, c.cycles(missCycles))
	}
	clients := make([]*client, loadGoroutines)
	var wg sync.WaitGroup
	for id := range clients {
		cl := newClient(id, c, srv.Handler(), hot)
		clients[id] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cl.id; i < len(hot); i += loadGoroutines {
				cl.do("/v1/simulate", hot[i].req, "prewarm")
				cl.check("miss", nil)
				hot[i].resp = bytes.Clone(cl.w.body)
			}
		}()
	}
	wg.Wait()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < max(int(warmRequests*c.scale), 100); i++ {
				k := &hot[cl.zipf.Uint64()]
				cl.do("/v1/simulate", k.req, "warm")
				cl.check("hit", k.resp)
			}
		}()
	}
	wg.Wait()
	for _, cl := range clients {
		if cl.out.failed > 0 {
			s.close()
			return nil, nil, fmt.Errorf("pre-warm: %s", cl.out.reasons[0])
		}
		cl.out = newOutcome()
	}
	return s, clients, nil
}

// runClients runs every client for the budget and returns the request
// rate (1/s) with each client at its best whole period, and the best
// period's fast-hit latency (s).
func runClients(clients []*client, budget time.Duration) (rate, hitLat float64) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(budget)
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.parent = cl.rec.begin("client", -1)
			cl.marks = cl.marks[:0]
			// At least one whole period, however short the budget.
			for now := time.Now(); now.Before(deadline) || len(cl.marks) < 2; now = time.Now() {
				if cl.n%period == 0 {
					cl.marks = append(cl.marks, mark{now, len(cl.lat[classHit])})
				}
				cl.next()
			}
			cl.rec.end(cl.parent)
		}()
	}
	wg.Wait()
	var hitLats []float64
	for _, cl := range clients {
		var walls []float64
		for i := 1; i < len(cl.marks); i++ {
			a, b := cl.marks[i-1], cl.marks[i]
			lat := make([]float64, 0, period)
			for _, d := range cl.lat[classHit][a.hits:b.hits] {
				lat = append(lat, time.Duration(d).Seconds())
			}
			walls = append(walls, b.at.Sub(a.at).Seconds())
			hitLats = append(hitLats, percentile(lat, fast))
		}
		rate += period / best(walls)
	}
	return rate, best(hitLats)
}

// classLatencies gathers one class's latencies from every client, in
// seconds, and empties them.
func classLatencies(clients []*client, cls class) []float64 {
	var out []float64
	for _, cl := range clients {
		for _, d := range cl.lat[cls] {
			out = append(out, time.Duration(d).Seconds())
		}
		cl.lat[cls] = cl.lat[cls][:0]
	}
	return out
}

func sent(clients []*client) (n int64) {
	for _, cl := range clients {
		n += cl.n
	}
	return n
}

// runServe runs the serve_mix workload.
func runServe(c config) (*outcome, error) {
	o := newOutcome()
	var s *server
	var clients []*client
	setupS, err := repeatSetup(func() error {
		s.close()
		var err error
		s, clients, err = setupServe(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.e2e["setup_s"] = setupS
	// The warm server, its cache and nothing in flight — taken before the
	// benchmark's own buffers exist.
	o.layer["serve.live_heap_mb"] = liveHeapMB()

	// Room for the fastest hit rate seen on the sizing box. A traced run
	// allocates its recorders now, so both halves run against the same
	// heap and the collector paces them alike.
	capacity := int(c.seconds*30000) + 1000
	epoch := time.Now()
	recs := make([]*recorder, len(clients))
	for i, cl := range clients {
		cl.reserve(capacity)
		if c.traced {
			recs[i] = newRecorder(epoch, capacity)
		}
	}

	var m meter
	before := s.srv.Snapshot()
	m.start()
	rate, hitLat := runClients(clients, c.budget())
	m.stop()
	o.e2e["work_per_s"] = rate
	o.e2e["op_ms"] = hitLat * 1e3
	// The slow op is the checked miss: one per period, each on a seed of
	// its own, so the quickest few of the run rather than the single best.
	o.e2e["slow_op_ms"] = percentile(classLatencies(clients, classMissChecked), fast) * 1e3
	o.e2e["alloc_b_per_work"] = float64(m.allocBytes) / float64(sent(clients))
	for _, cl := range clients {
		for cls := range cl.lat {
			cl.lat[cls] = cl.lat[cls][:0]
		}
	}

	if c.traced {
		for i, cl := range clients {
			cl.rec = recs[i]
		}
		tracedRate, _ := runClients(clients, c.budget())
		o.layer["bench.trace_overhead_ratio"] = rate / tracedRate
		if err := serveLayers(c, o, s, clients, before); err != nil {
			return nil, err
		}
		if err := writeTrace(c.outDir, "serve_mix", c.seed, classSpan[classHit], 64, recs...); err != nil {
			return nil, err
		}
	}
	for _, cl := range clients {
		cl.rec = nil
		cl.recheckMisses()
		o.attempted += cl.out.attempted
		o.failed += cl.out.failed
		o.reasons = append(o.reasons, cl.out.reasons...)
	}
	return o, nil
}

// serveLayers reports what the traced client run and the cache counters
// say about the serve and cache layers, then runs the stage probes.
func serveLayers(c config, o *outcome, s *server, clients []*client, before cache.Stats) error {
	// Cache counters over both client runs, against the schedule.
	snap := s.srv.Snapshot()
	var scheduledMisses int64
	for _, cl := range clients {
		scheduledMisses += cl.n / missEvery
	}
	hitCount, missCount := snap.Hits-before.Hits, snap.Misses-before.Misses
	o.layer["cache.hits"] = float64(hitCount)
	o.layer["cache.misses"] = float64(missCount)
	o.layer["cache.shared"] = float64(snap.Shared - before.Shared)
	o.layer["cache.errors"] = float64(snap.Errors - before.Errors)
	o.layer["cache.disk_hit_share"] = float64(snap.DiskHits-before.DiskHits) / float64(max(hitCount, 1))
	o.op("")
	if missCount != scheduledMisses || hitCount != sent(clients)-scheduledMisses {
		o.fail(fmt.Sprintf("cache counted %d hits and %d misses, the schedule sent %d and %d",
			hitCount, missCount, sent(clients)-scheduledMisses, scheduledMisses))
	}

	hit := classLatencies(clients, classHit)
	hitBig := classLatencies(clients, classHitBig)
	miss := classLatencies(clients, classMiss)
	missChecked := classLatencies(clients, classMissChecked)
	o.layer["serve.hit_p50_us"] = percentile(hit, 0.5) * 1e6
	o.layer["serve.hit_p99_us"] = percentile(hit, 0.99) * 1e6
	o.layer["serve.hit_big_p50_us"] = median(hitBig) * 1e6
	o.layer["serve.miss_p50_ms"] = percentile(miss, 0.5) * 1e3
	o.layer["serve.miss_p95_ms"] = percentile(miss, 0.95) * 1e3
	o.layer["serve.miss_checked_p50_ms"] = median(missChecked) * 1e3

	// The self times compare like with like: the undisturbed request
	// against undisturbed stages, both at the fast quantile.
	return serveProbes(c, o, clients[0], percentile(hit, fast)*1e6, percentile(miss, fast)*1e3)
}

// probeReps is the sample count of each microsecond-scale stage probe.
const probeReps = 20000

// usFast is timeFast in µs.
func usFast(reps int, f func()) float64 {
	return timeFast(reps, f).Seconds() * 1e6
}

// serveProbes times each stage a request passes through, from that
// stage's public entry point, on the inputs the clients send. A hit is
// decode → validate → canonicalise → key → cache get → write; what the
// stages do not explain is serve's own time.
func serveProbes(c config, o *outcome, cl *client, hitUs, missMs float64) error {
	cl.rec = nil
	plain := cl.hot[0]
	var sc harness.Scenario
	var err error
	o.layer["harness.decode_us"] = usFast(probeReps, func() {
		sc, err = harness.DecodeScenario(bytes.NewReader(plain.req))
	})
	if err != nil {
		return err
	}
	o.layer["harness.validate_us"] = usFast(probeReps, func() { err = sc.Validate() })
	if err != nil {
		return err
	}
	var canonical []byte
	o.layer["harness.canonical_us"] = usFast(probeReps, func() { canonical = sc.Normalized().Canonical() })
	var key string
	o.layer["cache.keyof_us"] = usFast(probeReps, func() { key = cache.KeyOf(serve.ResultVersion+"/simulate", canonical) })

	// Cache operations on a scratch store of its own, with a plain
	// response as the value.
	dir, err := os.MkdirTemp(c.outDir, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, 2)
	if err != nil {
		return err
	}
	const files = 64
	i := 0
	o.layer["cache.put_us"] = usFast(2000, func() {
		if e := store.Put(fmt.Sprintf("%s%02d", key[:62], i%files), plain.resp); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	// A two-entry memory tier over 64 keys read round-robin: every Get
	// misses memory and reads the disk tier.
	found := true
	o.layer["cache.get_disk_us"] = usFast(probeReps, func() {
		_, ok := store.Get(fmt.Sprintf("%s%02d", key[:62], i%files))
		found = found && ok
		i++
	})
	last := fmt.Sprintf("%s%02d", key[:62], (i-1)%files)
	o.layer["cache.get_mem_us"] = usFast(probeReps, func() {
		_, ok := store.Get(last)
		found = found && ok
	})
	if !found {
		return fmt.Errorf("cache probe: a stored key was not found")
	}

	pool := runner.NewPool[int](runner.PoolOptions{Workers: loadGoroutines})
	o.layer["runner.pool_submit_us"] = usFast(probeReps, func() {
		_, err = pool.Submit(context.Background(), runner.Job[int]{Key: "noop", Run: func(context.Context, int64) (int, error) { return 0, nil }})
	})
	pool.Close()
	if err != nil {
		return err
	}

	// The benchmark's own cost per request: the same client code against
	// a handler that only writes.
	real := cl.h
	cl.h = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(plain.resp) })
	o.layer["bench.harness_floor_us"] = usFast(probeReps, func() { cl.do("/v1/simulate", plain.req, "") })
	cl.h = real

	// A hit never reaches the worker pool, so pool_submit is not one of
	// its stages.
	stages := o.layer["harness.decode_us"] + o.layer["harness.validate_us"] + o.layer["harness.canonical_us"] +
		o.layer["cache.keyof_us"] + o.layer["cache.get_mem_us"]
	o.layer["serve.hit_self_us"] = hitUs - stages

	// otrace: what asking the server for its span tree costs a hit, and
	// how much of a miss the server's own top-level spans account for.
	var plainLat, tracedLat []float64
	for i := 0; i < 2000; i++ {
		plainLat = append(plainLat, cl.do("/v1/simulate", plain.req, "").Seconds())
		tracedLat = append(tracedLat, cl.do("/v1/simulate?trace=server", plain.req, "").Seconds())
	}
	o.layer["otrace.trace_tax_ratio"] = percentile(tracedLat, fast) / percentile(plainLat, fast)

	var sums, covers, setups, runs, encodes []float64
	for i := int64(0); i < 20; i++ {
		body := simBody(c.seed*1_000_000+900_000+i, false, cl.cycles)
		d := cl.do("/v1/simulate?trace=server", body, "")
		var env struct {
			Spans  []otrace.SpanData `json:"spans"`
			Result json.RawMessage   `json:"result"`
		}
		if err := json.Unmarshal(cl.w.body, &env); err != nil {
			return fmt.Errorf("trace envelope: %w", err)
		}
		ids := map[string]bool{}
		for _, sp := range env.Spans {
			ids[sp.SpanID] = true
		}
		var root string
		for _, sp := range env.Spans {
			if !ids[sp.Parent] {
				root = sp.SpanID
			}
		}
		// Top-level spans, summed and as the length of their union: the
		// two differ when siblings overlap.
		var sum, union, covered int64
		for _, sp := range env.Spans { // sorted by start
			if sp.Parent != root {
				continue
			}
			sum += sp.Dur
			if end := sp.Start + sp.Dur; end > covered {
				union += end - max(sp.Start, covered)
				covered = end
			}
		}
		sums = append(sums, float64(sum)/float64(d))
		covers = append(covers, float64(union)/float64(d))

		// The same miss, stage by stage, from the benchmark's side.
		sc, err := harness.DecodeScenario(bytes.NewReader(body))
		if err != nil {
			return err
		}
		t0 := time.Now()
		sim, err := sc.Sim()
		if err != nil {
			return err
		}
		t1 := time.Now()
		sim.Run(sc.Cycles)
		t2 := time.Now()
		var resp serve.SimResponse
		if err := json.Unmarshal(env.Result, &resp); err != nil {
			return err
		}
		t3 := time.Now()
		if err := exp.EncodeJSON(&bytes.Buffer{}, resp); err != nil {
			return err
		}
		setups = append(setups, t1.Sub(t0).Seconds())
		runs = append(runs, t2.Sub(t1).Seconds())
		encodes = append(encodes, time.Since(t3).Seconds())
	}
	o.layer["otrace.span_sum_ratio"] = median(sums)
	o.layer["otrace.span_cover_ratio"] = median(covers)
	o.layer["serve.miss_self_ms"] = missMs - (best(setups)+best(runs)+best(encodes))*1e3 - o.layer["cache.put_us"]/1e3
	return nil
}
