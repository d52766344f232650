package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// leg is one batch simulation of a sim workload: a caller builds it with
// harness.Scenario.Sim, runs it with Simulation.Run and reads its stats.
type leg struct {
	name string
	sc   harness.Scenario
}

// legNamed returns the leg with that name; the names are compiled in.
func legNamed(legs []leg, name string) leg {
	for _, l := range legs {
		if l.name == name {
			return l
		}
	}
	panic("no leg " + name)
}

// simChunk is the Run granularity: one timed call, and under the
// recorder one span, per chunk.
const simChunk = 100

// satLegs are the saturated legs: the router pipeline does nearly all
// the work, and the 1-VC leg is the paper's own regime where the SPIN
// probe/move machinery runs hot. Each is sized to ~0.6 s on the box the
// sizes were taken on.
func satLegs(c config) []leg {
	base := harness.Scenario{Scheme: "spin", Traffic: "uniform_random", VCsPerVNet: 3}
	mk := func(i int, name, topo, routing string, rate float64, cycles int64) leg {
		sc := base
		sc.Topology, sc.Routing, sc.Rate = topo, routing, rate
		sc.Cycles, sc.Seed = c.cycles(cycles), c.seed*100+int64(i)
		return leg{name, sc}
	}
	legs := []leg{
		mk(0, "mesh8x8_sat", "mesh:8x8", "min_adaptive", 0.28, 12000),
		mk(1, "torus8x8_sat", "torus:8x8", "min_adaptive", 0.45, 9000),
		mk(2, "dfly64_sat", "dragonfly:4,4,4,16", "ugal_spin", 0.20, 6400),
		mk(3, "torus8x8_spin1vc", "torus:8x8", "favors_min", 0.10, 36000),
	}
	legs[3].sc.VCsPerVNet, legs[3].sc.Traffic = 1, "bit_complement"
	return legs
}

// idleLegs are the mostly-empty legs: per-cycle fixed cost, worklists,
// traffic generators and trace decode dominate. dfly1024_low is the
// paper-scale network the sharding verdict is about. The last leg replays
// a spintrace-v1 trace the benchmark builds itself.
func idleLegs(c config) ([]leg, error) {
	base := harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", VCsPerVNet: 3}
	mk := func(i int, name string, rate float64, cycles int64) leg {
		sc := base
		sc.Rate, sc.Cycles, sc.Seed = rate, c.cycles(cycles), c.seed*100+10+int64(i)
		return leg{name, sc}
	}
	legs := []leg{
		mk(0, "mesh8x8_closed_think", 0.05, 120000),
		mk(1, "mesh8x8_burst", 0.02, 100000),
		mk(2, "mesh16x16_low", 0.01, 24000),
		mk(3, "dfly1024_low", 0.02, 3200),
		mk(4, "mesh8x8_trace_gaps", 0, 120000),
	}
	legs[0].sc.Workload = &workload.Spec{Mode: "closed", Window: 2, Think: 400}
	legs[1].sc.Workload = &workload.Spec{BurstOn: 50, BurstOff: 2000}
	legs[2].sc.Topology = "mesh:16x16"
	legs[3].sc.Topology, legs[3].sc.Routing, legs[3].sc.VNets = "dragonfly1024", "ugal_spin", 3
	raw, err := buildTrace(c.seed, legs[4].sc.Cycles)
	if err != nil {
		return nil, err
	}
	legs[4].sc.Traffic = ""
	legs[4].sc.TraceB64 = base64.StdEncoding.EncodeToString(raw)
	for _, l := range legs {
		if err := l.sc.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
	}
	return legs, nil
}

// Trace shape: a clump of packets every clumpEvery cycles, 32 injected
// per cycle, and nothing in between.
const (
	clumpEvery   = 20000
	clumpPackets = 2000
)

// buildTrace writes the mesh8x8_trace_gaps trace for a 64-terminal
// network.
func buildTrace(seed, cycles int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	tw := traffic.NewTraceWriter(&buf)
	for start := int64(0); start < cycles; start += clumpEvery {
		for i := 0; i < clumpPackets; i++ {
			src := rng.Intn(64)
			dst := (src + 1 + rng.Intn(63)) % 64
			e := traffic.TraceEntry{Cycle: start + int64(i/32), Src: src, Dst: dst, Length: 1 + 4*rng.Intn(2)}
			if e.Cycle >= cycles {
				break
			}
			if err := tw.Add(e); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// legRun is one execution of a leg.
type legRun struct {
	// pieces is the wall time (s) of each call the leg makes, in order:
	// Scenario.Sim, one Run per simChunk cycles, the stats read. A piece
	// is identical work in every pass, so the best of its timings across
	// passes estimates it undisturbed (see best in measure.go); a piece
	// needs only tens of milliseconds of quiet where a whole leg needs
	// half a second.
	pieces  []float64
	mallocs uint64  // heap objects allocated inside Run (traced only)
	cover   float64 // share of the leg span its child spans cover
	liveMB  float64 // heap still referenced with the network alive
	stats   sim.Stats
	digest  string
}

// runLeg executes one leg: Scenario.Sim (at the given shard count), Run
// in simChunk-cycle calls, stats read — each call timed, and under a
// recorder each a span. attach, when non-nil, hangs an observer on the
// network before the run and returns a check evaluated after it. m may
// be nil (warm-up, probes).
func runLeg(l leg, shards int, rec *recorder, m *meter, attach func(*sim.Network) func() error) (legRun, error) {
	r := legRun{pieces: make([]float64, 0, l.sc.Cycles/simChunk+3)}
	if m != nil {
		m.start()
	}
	legSpan := rec.begin(l.name, -1)
	timed := func(name string, f func()) {
		id := rec.begin(name, legSpan)
		t0 := time.Now()
		f()
		r.pieces = append(r.pieces, time.Since(t0).Seconds())
		rec.end(id)
	}
	var s *spin.Simulation
	var err error
	timed("harness.Scenario.Sim", func() { s, err = l.sc.SimShards(shards) })
	if err != nil {
		return r, fmt.Errorf("%s: %w", l.name, err)
	}
	var check func() error
	if attach != nil {
		check = attach(s.Network())
	}
	var before, after runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	for done := int64(0); done < l.sc.Cycles; done += simChunk {
		timed("spin.Simulation.Run", func() { s.Run(min(simChunk, l.sc.Cycles-done)) })
	}
	if rec != nil {
		runtime.ReadMemStats(&after)
		r.mallocs = after.Mallocs - before.Mallocs
	}
	timed("spin.Simulation.Stats", func() { r.stats = *s.Stats() })
	rec.end(legSpan)
	if m != nil {
		m.stop()
	}
	r.liveMB = liveHeapMB()
	runtime.KeepAlive(s)
	if rec != nil {
		r.cover = rec.childCover(legSpan)
	}
	// %+v prints the Counters map key-sorted, so the rendering — and the
	// digest — is a function of the statistics alone.
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", r.stats)))
	r.digest = hex.EncodeToString(h[:8])
	if check != nil {
		if err := check(); err != nil {
			return r, fmt.Errorf("%s: %w", l.name, err)
		}
	}
	return r, nil
}

// bestLegWall runs a leg reps times outside the timed part and returns
// its wall time (s) with every piece at its best.
func bestLegWall(l leg, shards, reps int, attach func(*sim.Network) func() error) (float64, error) {
	var acc []float64
	for i := 0; i < reps; i++ {
		r, err := runLeg(l, shards, nil, nil, attach)
		if err != nil {
			return 0, err
		}
		acc = bestPieces(acc, r.pieces)
	}
	return sum(acc), nil
}

// runSim runs one of the two sim workloads.
func runSim(c config, name string) (*outcome, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var legs []leg
	setupS, err := repeatSetup(func() error {
		var err error
		if name == "sim_sat" {
			legs = satLegs(c)
		} else if legs, err = idleLegs(c); err != nil {
			return err
		}
		// Warm-up: a short run of every leg, discarded. It faults in
		// the heap and warms the caches; the first cold leg ran 17 %
		// slow on the box the sizes were taken on.
		for _, l := range legs {
			l.sc.Cycles = max(l.sc.Cycles/8, 50)
			if _, err := runLeg(l, 1, nil, nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS

	// pass runs every leg once and checks its digest against the first
	// pass (and, for the default seed, expected.json).
	first := make([]legRun, len(legs))
	pass := func(n int, rec *recorder, m *meter, bests [][]float64, keep func(i int, r legRun)) error {
		for i, l := range legs {
			r, err := runLeg(l, 1, rec, m, nil)
			if err != nil {
				return err
			}
			o.op("")
			switch {
			case n == 0 && rec == nil:
				first[i] = r
				c.checkDigest(o, want, l.name, r.digest)
			case r.digest != first[i].digest:
				o.fail(fmt.Sprintf("%s: stats digest %s differs from the first pass's %s", l.name, r.digest, first[i].digest))
			}
			bests[i] = bestPieces(bests[i], r.pieces)
			if keep != nil {
				keep(i, r)
			}
		}
		return nil
	}

	var m meter
	bests := make([][]float64, len(legs))
	passes := 0
	err = runPasses(c.budget(), func(n int) error {
		passes++
		return pass(n, nil, &m, bests, nil)
	})
	if err != nil {
		return nil, err
	}
	// One pass over the legs with every piece at its best. A leg is the
	// op a caller waits for: op_ms is the median leg, slow_op_ms the
	// slowest, so a change to one leg moves the three numbers differently.
	var passCycles, bestPass float64
	legWalls := make([]float64, len(legs))
	for i, l := range legs {
		passCycles += float64(l.sc.Cycles)
		legWalls[i] = sum(bests[i])
		bestPass += legWalls[i]
	}
	o.e2e["work_per_s"] = passCycles / bestPass
	o.e2e["slow_op_ms"] = slices.Max(legWalls) * 1e3
	o.e2e["op_ms"] = median(legWalls) * 1e3
	o.e2e["alloc_b_per_work"] = float64(m.allocBytes) / (passCycles * float64(passes))
	if name == "sim_sat" {
		spinCounts(c, o, want, &first[len(legs)-1].stats) // torus8x8_spin1vc
	}
	if !c.traced {
		return o, nil
	}

	// Traced passes: the same legs under the recorder.
	rec := newRecorder(time.Now(), 1<<16)
	tracedBests := make([][]float64, len(legs))
	runs := make([][]legRun, len(legs))
	err = runPasses(c.budget(), func(n int) error {
		return pass(n, rec, nil, tracedBests, func(i int, r legRun) { runs[i] = append(runs[i], r) })
	})
	if err != nil {
		return nil, err
	}
	var tracedPass float64
	cover := 1.0
	for i, l := range legs {
		b := tracedBests[i]
		tracedPass += sum(b)
		var allocs, live []float64
		for _, r := range runs[i] {
			allocs = append(allocs, float64(r.mallocs)/(float64(l.sc.Cycles)/1000))
			live = append(live, r.liveMB)
			cover = min(cover, r.cover)
		}
		o.layer["sim.step_ns_per_cycle."+l.name] = sum(b[1:len(b)-1]) * 1e9 / float64(l.sc.Cycles)
		o.layer["sim.ns_per_link_traversal."+l.name] = sum(b) * 1e9 / float64(max(runs[i][0].stats.LinkTraversals, 1))
		o.layer["sim.allocs_per_kcycle."+l.name] = median(allocs)
		o.layer["harness.sim_setup_ms."+l.name] = b[0] * 1e3
		o.layer["sim.live_heap_mb."+l.name] = median(live)
	}
	o.layer["sim.chunk_cover_ratio"] = cover
	o.layer["bench.trace_overhead_ratio"] = tracedPass / bestPass
	if name == "sim_sat" {
		err = observerTaxes(o, legNamed(legs, "mesh8x8_sat"))
	} else {
		err = idleProbes(c, o, legs)
	}
	if err != nil {
		return nil, err
	}
	return o, writeTrace(c.outDir, name, c.seed, "", 0, rec)
}

// spinCounts reports the SPIN protocol's exact counts on the 1-VC leg.
// They are simulated statistics: no change to the simulator's speed may
// move them.
func spinCounts(c config, o *outcome, want *expectedSet, st *sim.Stats) {
	probes := st.Counter("probes_sent")
	o.layer["spin.spins"] = float64(st.Spins)
	o.layer["spin.probes_sent"] = float64(probes)
	o.layer["spin.recoveries_per_probe"] = float64(st.Counter("recoveries")) / float64(max(probes, 1))
	o.layer["spin.sm_dropped"] = float64(st.SMDropped)
	c.checkCount(o, want, "spin.spins", st.Spins)
	c.checkCount(o, want, "spin.probes_sent", probes)
	c.checkCount(o, want, "spin.recoveries", st.Counter("recoveries"))
	c.checkCount(o, want, "spin.sm_dropped", st.SMDropped)
}

// taxReps is how many times each variant of a ratio probe runs.
const taxReps = 3

// observerTaxes reports what each attachable observer costs on the
// saturated mesh leg: leg wall with the observer ÷ plain leg wall. These
// are the observers a checked spind request attaches. The checker's
// verdict is checked: a violation is a failed op.
func observerTaxes(o *outcome, l leg) error {
	plain, err := bestLegWall(l, 1, taxReps, nil)
	if err != nil {
		return err
	}
	o.op("")
	for _, tax := range []struct {
		name   string
		attach func(*sim.Network) func() error
	}{
		{"sim.checker_tax.mesh8x8_sat", func(n *sim.Network) func() error {
			return n.AttachChecker(l.sc.CheckOptions(n.NumRouters())).Err
		}},
		{"sim.flightrec_tax.mesh8x8_sat", func(n *sim.Network) func() error {
			n.AttachFlightRecorder(4096)
			return nil
		}},
		{"telemetry.tax.mesh8x8_sat", func(n *sim.Network) func() error {
			n.AttachTelemetry(sim.TelemetryOptions{Hist: true, Window: 100})
			return nil
		}},
	} {
		wall, err := bestLegWall(l, 1, taxReps, tax.attach)
		if err != nil {
			// Only the checker's verdict can fail a run that the plain
			// leg passed.
			o.fail(err.Error())
			continue
		}
		o.layer[tax.name] = wall / plain
	}
	return nil
}

// idleProbes times the layer calls the idle workload leans on, each from
// its public entry point.
func idleProbes(c config, o *outcome, legs []leg) error {
	// Idle floor: a mesh that injects nothing.
	floor := leg{"idle_floor", harness.Scenario{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 3, Seed: c.seed, Cycles: c.cycles(200000)}}
	wall, err := bestLegWall(floor, 1, 1, nil)
	if err != nil {
		return err
	}
	o.layer["sim.idle_floor_ns_per_cycle"] = wall * 1e9 / float64(floor.sc.Cycles)

	// The ROADMAP's keep-or-delete number: the paper-scale leg at two
	// shards against one. Nothing timed uses more than one shard.
	dfly := legNamed(legs, "dfly1024_low")
	one, err := bestLegWall(dfly, 1, taxReps, nil)
	if err != nil {
		return err
	}
	two, err := bestLegWall(dfly, 2, taxReps, nil)
	if err != nil {
		return err
	}
	o.layer["sim.shard2_speedup.dfly1024_low"] = one / two

	// BuildRouting is not probed: it builds no tables (that cost sits in
	// Scenario.Sim, under harness.sim_setup_ms) and reads ~100 ns.
	for _, l := range []leg{dfly, legNamed(legs, "mesh16x16_low")} {
		var topoErr error
		o.layer["topology.build_ms."+l.name] = timeFast(5, func() {
			_, topoErr = spin.BuildTopology(l.sc.Topology, l.sc.Seed)
		}).Seconds() * 1e3
		if topoErr != nil {
			return topoErr
		}
	}

	raw, err := base64.StdEncoding.DecodeString(legNamed(legs, "mesh8x8_trace_gaps").sc.TraceB64)
	if err != nil {
		return err
	}
	var packets int
	var decodeErr error
	d := timeFast(5, func() {
		packets = 0
		tr, err := traffic.StreamTrace(bytes.NewReader(raw))
		if err != nil {
			decodeErr = err
			return
		}
		for {
			if _, err := tr.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					decodeErr = err
				}
				break
			}
			packets++
		}
		tr.Close()
	})
	if decodeErr != nil {
		return fmt.Errorf("trace decode: %w", decodeErr)
	}
	o.layer["traffic.trace_decode_mpkts_per_s"] = float64(packets) / d.Seconds() / 1e6
	return nil
}
