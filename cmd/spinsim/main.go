// Command spinsim runs one network configuration and prints its
// performance and recovery statistics.
//
// With -seeds N (N > 1) it runs N replicates of the configuration on the
// internal/runner worker pool — replicate seeds derive from -seed and
// the replicate index — and reports per-replicate and aggregate numbers,
// the cheap way to put confidence intervals on a single design point.
// -timeout bounds each run, -progress reports completions, and Ctrl-C
// cancels promptly.
//
// Usage:
//
//	spinsim -topo mesh:8x8 -routing favors_min -scheme spin -vcs 1 \
//	        -traffic uniform_random -rate 0.3 -cycles 100000
//	spinsim -preset mesh_favors_min -traffic transpose -rate 0.25
//	spinsim -preset mesh_favors_min -rate 0.3 -seeds 8 -workers 4
//	spinsim -topo mesh:8x8 -rate 0.28 -cycles 20000 -cpuprofile cpu.pb
//	spinsim -topo mesh:8x8 -routing favors_min -scheme spin -rate 0.40 \
//	        -cycles 20000 -trace out.json -epoch 500 -hist -tsout ts.json
//
// -trace writes a Chrome trace-event JSON (open in ui.perfetto.dev or
// chrome://tracing) of the last -tracebuf non-flit telemetry events —
// packet lifecycles, SPIN state-machine sends, VC freezes, oracle
// firings — plus counter tracks sampled every -epoch cycles. -hist
// prints p50/p95/p99 latency percentiles and -tsout writes the windowed
// time-series JSON.
//
// Workload shaping (see internal/workload): -window W turns the
// synthetic source into closed-loop request/response clients with at
// most W requests outstanding per terminal (-think sets the mean
// post-reply think time), -burst ON:OFF modulates the source with
// per-terminal on/off bursts, and -hotspot FRAC:N skews FRAC of the
// destinations onto N hot terminals:
//
//	spinsim -topo mesh:8x8 -scheme spin -rate 0.4 -window 8 -think 16
//	spinsim -topo mesh:8x8 -scheme spin -rate 0.2 -burst 16:48 -hotspot 0.2:2
//
// Exact workloads: -record writes the packets a run injects as a
// spintrace-v1 file (see cmd/spintrace, which also converts to and from
// CSV), and -replay drives a run from one instead of -traffic. The file
// becomes the scenario's trace_b64, so a -check artifact of a replayed
// run carries its workload; the compressed file is held in memory for the
// run.
//
//	spinsim -topo mesh:8x8 -rate 0.2 -cycles 5000 -record t.spintrace
//	spinsim -topo mesh:8x8 -scheme spin -replay t.spintrace -drain
//
// Failures: -check attaches the invariant checker, and a failed run (or
// replicate) writes one artifact, scenario-<key>.json, to -checkdir.
// -replay-artifact re-runs any such file — spinmc's counterexamples too —
// and exits 1 if the replayed run fails (2 if the file cannot be replayed):
//
//	spinsim -topo mesh:4x4 -vcs 1 -rate 0.9 -cycles 3000 -drain -check -checkdir /tmp/a
//	spinsim -replay-artifact /tmp/a/scenario-<key>.json
package main

import (
	"cmp"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	spin "repro"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// recordFlagsErr is what -record cannot combine with: a -replay run's
// workload already is a file — recording it would only copy it.
func recordFlagsErr(record, replay string) error {
	if record != "" && replay != "" {
		return fmt.Errorf("-record captures a generated workload; recording a -replay would only copy %s", replay)
	}
	return nil
}

// simFlags are the flags that describe the simulation itself — exactly
// what a spin.Config carries, so the run, its -check artifact and its
// replay all name the same configuration.
type simFlags struct {
	preset, topo, routing, scheme, pattern, burst, hotspot, replay string
	vcs, vnets, window                                             int
	rate                                                           float64
	cycles, warmup, seed, tdd, think                               int64
}

func (f *simFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.preset, "preset", "", "named configuration from Table III (see spintables -table 3)")
	topologies, routings, _, schemes := spin.Names()
	fs.StringVar(&f.topo, "topo", "mesh:8x8", "topology spec: "+topologies)
	fs.StringVar(&f.routing, "routing", "min_adaptive", "routing algorithm: "+routings)
	fs.StringVar(&f.scheme, "scheme", "", "deadlock scheme: "+schemes)
	fs.IntVar(&f.vcs, "vcs", 1, "VCs per virtual network")
	fs.IntVar(&f.vnets, "vnets", 0, "virtual networks (0 = 1, or 2 under -window)")
	fs.StringVar(&f.pattern, "traffic", "uniform_random", "synthetic traffic pattern")
	fs.Float64Var(&f.rate, "rate", 0.1, "offered load (flits/node/cycle)")
	fs.Int64Var(&f.cycles, "cycles", 100000, "simulated cycles")
	fs.Int64Var(&f.warmup, "warmup", 0, "warmup cycles before measurement (0 = cycles/10, negative = no warmup)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed (base seed when -seeds > 1)")
	fs.Int64Var(&f.tdd, "tdd", 0, "deadlock detection threshold (0 = default 128)")
	fs.IntVar(&f.window, "window", 0, "closed-loop client window: max outstanding requests per terminal (0 = open loop)")
	fs.Int64Var(&f.think, "think", 0, "closed-loop mean think time in cycles after each reply (with -window)")
	fs.StringVar(&f.burst, "burst", "", "on/off burst modulation as ON:OFF mean cycles, e.g. 16:48")
	fs.StringVar(&f.hotspot, "hotspot", "", "hotspot skew as FRAC:N, e.g. 0.2:2 (20% of packets to 2 hot terminals)")
	fs.StringVar(&f.replay, "replay", "", "drive the run from a spintrace-v1 file instead of -traffic")
}

// shaped reports whether any workload-shaping flag is set.
func (f *simFlags) shaped() bool { return f.window > 0 || f.burst != "" || f.hotspot != "" }

// config translates the flags into the one config the run, the checker
// and any failure artifact share. -warmup follows spinsweep's rule.
func (f *simFlags) config() (spin.Config, error) {
	sc := spin.Config{Topology: f.topo, Routing: f.routing, Scheme: f.scheme, VNets: f.vnets, VCsPerVNet: f.vcs}
	if f.preset != "" {
		p, err := spin.PresetByName(f.preset)
		if err != nil {
			return sc, err
		}
		sc = p.Config
	}
	sc.Traffic, sc.Rate, sc.Seed, sc.TDD = f.pattern, f.rate, f.seed, f.tdd
	sc.Cycles, sc.Warmup = f.cycles, f.warmup
	switch {
	case f.warmup < 0:
		sc.Warmup = 0
	case f.warmup == 0:
		sc.Warmup = f.cycles / 10
	}
	if f.think != 0 && f.window == 0 {
		return sc, fmt.Errorf("-think needs -window (closed-loop clients)")
	}
	if f.replay != "" {
		if f.shaped() {
			return sc, fmt.Errorf("-window/-burst/-hotspot shape the synthetic source; they cannot combine with -replay")
		}
		raw, err := os.ReadFile(f.replay)
		if err != nil {
			return sc, err
		}
		// The trace drives injection, and rides in the scenario so a
		// -check artifact replays the same packets.
		sc.Traffic, sc.Rate, sc.TraceB64 = "", 0, base64.StdEncoding.EncodeToString(raw)
		return sc, nil
	}
	if !f.shaped() {
		return sc, nil
	}
	var w workload.Spec
	if f.window > 0 {
		w.Mode, w.Window, w.Think = "closed", f.window, f.think
	}
	if f.burst != "" {
		if _, err := fmt.Sscanf(f.burst, "%d:%d", &w.BurstOn, &w.BurstOff); err != nil {
			return sc, fmt.Errorf("-burst wants ON:OFF mean cycles, got %q", f.burst)
		}
	}
	if f.hotspot != "" {
		if _, err := fmt.Sscanf(f.hotspot, "%g:%d", &w.HotFrac, &w.Hotspots); err != nil {
			return sc, fmt.Errorf("-hotspot wants FRAC:N, got %q", f.hotspot)
		}
	}
	sc.Workload = &w
	return sc, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinsim: ")
	var f simFlags
	f.register(flag.CommandLine)
	var (
		drain    = flag.Bool("drain", false, "after the run, stop traffic and drain (liveness check)")
		check    = flag.Bool("check", false, "attach the runtime invariant checker; on violation print it, write a replay artifact, and exit 1")
		checkDir = flag.String("checkdir", ".", "directory for -check replay artifacts")
		replayAr = flag.String("replay-artifact", "", "re-run a scenario-<key>.json failure artifact under the checker; exit 1 if the replayed run fails")
		record   = flag.String("record", "", "record the injected workload to a spintrace-v1 file")
		seeds    = flag.Int("seeds", 1, "replicate count: run the configuration under N derived seeds")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON of the run to this file (open in ui.perfetto.dev)")
		tracebuf = flag.Int("tracebuf", 1<<18, "trace ring capacity: -trace keeps the last N non-flit events")
		epoch    = flag.Int64("epoch", 0, "telemetry time-series window in cycles (0 = default 100 when a time-series consumer is on)")
		hist     = flag.Bool("hist", false, "print latency percentiles (p50/p95/p99) from a log2-bucketed histogram")
		tsout    = flag.String("tsout", "", "write the epoch-windowed time-series JSON to this file")
		workers  = flag.Int("workers", 0, "concurrent replicates when -seeds > 1 (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-run time budget (0 = unlimited), e.g. 2m")
		progress = flag.Bool("progress", false, "report run completions (and single-run progress) to stderr")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprof  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()
	if *replayAr != "" {
		failed, err := replayArtifact(os.Stdout, *replayAr)
		if err != nil {
			log.Print(err)
			os.Exit(2) // not replayed: exit 1 is reserved for a run that failed
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	if *cpuprof != "" {
		pf, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			pf, err := os.Create(*memprof)
			if err != nil {
				log.Fatal(err)
			}
			defer pf.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(pf); err != nil {
				log.Fatal(err)
			}
		}()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	sc, err := f.config()
	if err == nil {
		err = sc.Validate() // refused here, not by the replay of its artifact
	}
	if err != nil {
		log.Fatal(err)
	}
	if f.window > 0 && *record != "" {
		log.Fatal("-record captures an open-loop injection sequence; closed-loop clients inject in answer to deliveries, which a replay would not reproduce")
	}
	telemetryOn := *traceOut != "" || *tsout != "" || *hist || *epoch != 0
	if *seeds > 1 {
		if *record != "" || f.replay != "" || *drain {
			log.Fatal("-seeds > 1 is incompatible with -record/-replay/-drain")
		}
		if f.shaped() {
			log.Fatal("-seeds > 1 is incompatible with -window/-burst/-hotspot")
		}
		if telemetryOn {
			log.Fatal("-seeds > 1 is incompatible with -trace/-tsout/-hist/-epoch")
		}
		if err := runReplicates(ctx, sc, *seeds, *workers, *timeout, *progress, *check, *checkDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := recordFlagsErr(*record, f.replay); err != nil {
		log.Fatal(err)
	}
	s, err := sc.Sim()
	if err != nil {
		log.Fatal(err)
	}
	net := s.Network()
	var recorder *traffic.Recorder
	if *record != "" {
		recorder = &traffic.Recorder{}
		net.AddObserver(sim.MaskOf(sim.EvPacketQueued), recorder)
	}

	ob := harness.Observe{Check: *check, Drain: *drain, Hist: *hist,
		Window: harness.TelemetryEpoch(*traceOut != "" || *tsout != "" || *epoch != 0, *epoch)}
	if *traceOut != "" {
		ob.Events = sim.NewEventRing(*tracebuf, sim.DefaultMask)
	}
	if *progress && ob.Window == 0 {
		ob.Window = max(1, sc.Cycles/10) // progress-only windows
	}
	var lastPct int64
	ob.OnWindow = func(done int64, _ []sim.WindowSample) {
		if pct := done * 100 / sc.Cycles; *progress && pct >= lastPct+10 {
			lastPct = pct - pct%10
			fmt.Fprintf(os.Stderr, "spinsim: %d%% (%d/%d cycles)\n", lastPct, done, sc.Cycles)
		}
		if done == sc.Cycles {
			// The traffic phase is over and the drain has not started:
			// the instantaneous gauges below still describe the run.
			report(s, sc, *hist, recorder, *record, f.replay)
		}
	}
	jobs := []runner.Job[*harness.Result]{{Key: "run", Run: func(ctx context.Context, _ int64) (*harness.Result, error) {
		return harness.Drive(ctx, sc, net, ob)
	}}}
	results, err := runner.Run(ctx, runner.Options{Workers: 1, Timeout: *timeout}, jobs)
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]
	if *drain {
		if res.Drained {
			fmt.Println("drain           complete: every packet delivered")
		} else {
			fmt.Printf("drain           INCOMPLETE: %d still in flight\n", net.InFlight())
		}
	}
	// Telemetry files are written before the verdict so a failed run
	// still leaves the trace behind — that is when it matters most.
	if *tsout != "" {
		writeJSONFile(*tsout, res.TimeSeries)
		fmt.Printf("timeseries      %d windows of %d cycles written to %s\n",
			len(res.TimeSeries.Samples), res.TimeSeries.Window, *tsout)
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(tf, ob.Events.Events(), res.TimeSeries); err != nil {
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace           %d events (of %d seen) written to %s\n",
			ob.Events.Len(), ob.Events.Total(), *traceOut)
	}
	if res.Failed() {
		if *check {
			log.Print(harness.ReportFailure(*checkDir, res))
		}
		os.Exit(1)
	}
	if *check {
		fmt.Printf("check           ok: no invariant violations (max deadlock spell %d cycles)\n", res.MaxDeadlockSpell)
	}
}

// report prints the end-of-traffic summary (and saves a -record trace).
func report(s *spin.Simulation, sc spin.Config, hist bool, recorder *traffic.Recorder, recordPath, replayPath string) {
	net := s.Network()
	if recorder != nil {
		rf, err := os.Create(recordPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := traffic.EncodeTrace(rf, recorder.Entries); err != nil {
			log.Fatal(err)
		}
		if err := rf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace           %d injections recorded to %s\n", len(recorder.Entries), recordPath)
	}
	st := s.Stats()
	nc := net.Config()
	fmt.Printf("topology        %s (%d routers, %d terminals)\n",
		s.Topology().Name(), s.Topology().NumRouters(), s.Topology().NumTerminals())
	fmt.Printf("config          routing=%s scheme=%s vnets=%d vcs=%d\n", sc.Routing, cmp.Or(sc.Scheme, "none"), nc.VNets, nc.VCsPerVNet)
	fmt.Printf("offered         %s @ %.3f flits/node/cycle, %d cycles\n", sc.Traffic, sc.Rate, sc.Cycles)
	fmt.Printf("packets         injected=%d ejected=%d in-flight=%d queued=%d\n",
		st.Injected, st.Ejected, net.InFlight(), net.QueuedPackets())
	fmt.Printf("latency         avg=%.1f net=%.1f max=%d cycles\n", st.AvgLatency(), st.AvgNetLatency(), st.MaxLatency)
	if hist {
		sum := net.Telemetry().LatencySummary()
		fmt.Printf("percentiles     p50=%.1f p95=%.1f p99=%.1f max=%d cycles (n=%d)\n",
			sum.P50, sum.P95, sum.P99, sum.Max, sum.Count)
	}
	fmt.Printf("throughput      %.4f flits/node/cycle, %.2f avg hops\n", s.Throughput(), st.AvgHops())
	u := net.LinkUtilisation()
	fmt.Printf("links           flit=%.3f sm=%.4f idle=%.3f\n", u.Flit, u.SMAll, u.Idle)
	if sc.Scheme == "spin" {
		fmt.Printf("spin            spins=%d recoveries=%d probes=%d kill_moves=%d\n",
			st.Spins, st.Counter("recoveries"), st.Counter("probes_sent"), st.Counter("kill_moves_sent"))
	}
	if cl, ok := nc.Traffic.(*workload.ClosedLoop); ok {
		achieved := float64(cl.Completed()) / float64(sc.Cycles) / float64(s.Topology().NumTerminals())
		fmt.Printf("closedloop      window=%d issued=%d completed=%d in_window=%d achieved=%.4f req/node/cycle\n",
			cl.WindowLimit(), cl.Issued(), cl.Completed(), cl.InWindow(), achieved)
	}
	if stream, ok := nc.Traffic.(*traffic.StreamReplay); ok {
		fmt.Printf("trace           %d packets streamed from %s\n", stream.Pumped(), replayPath)
	}
}

// replayArtifact re-runs a failure artifact's scenario under the checker
// and reports whether the replayed run failed. Runs are deterministic in
// their seed, so a faithful artifact reproduces its failure exactly.
func replayArtifact(w io.Writer, path string) (failed bool, err error) {
	art, err := harness.LoadArtifact(path)
	if err != nil {
		return false, err
	}
	if err := art.Scenario.Validate(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "artifact        %s\n", path)
	fmt.Fprintf(w, "scenario        %s\n", art.Scenario)
	if snap := art.Snapshot; snap != nil {
		fmt.Fprintf(w, "recorded        %s at cycle %d: %d SPIN events retained (%d seen), %d chained VCs\n",
			snap.Reason, snap.Cycle, len(snap.Events), snap.Total, len(snap.SpinningVCs))
	}
	if art.CDG != nil {
		fmt.Fprintf(w, "cdg             %s\n", art.CDG.Summary)
	}
	res, err := harness.Run(art.Scenario)
	if err != nil {
		return false, err
	}
	if !res.Failed() {
		fmt.Fprintf(w, "replay          NOT REPRODUCED: %s\n", res.Summary())
		return false, nil
	}
	fmt.Fprintf(w, "replay          reproduced: %s\n", res.Summary())
	if snap := res.Forensics; snap != nil {
		fmt.Fprintf(w, "snapshot        fresh capture at cycle %d: %d events, %d chained VCs\n",
			snap.Cycle, len(snap.Events), len(snap.SpinningVCs))
	}
	return true, nil
}

// replicate is one seed's headline metrics.
type replicate struct {
	Seed       int64
	AvgLatency float64
	Throughput float64
	Spins      int64
}

// runReplicates runs sc under n derived seeds in parallel and prints
// per-replicate rows plus mean ± stddev aggregates. A replicate that fails
// its check writes its artifact to checkDir and fails the set.
func runReplicates(ctx context.Context, sc spin.Config, n, workers int, timeout time.Duration, progress, check bool, checkDir string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sims := spin.NewPool(workers) // one network per worker, rewound per seed
	jobs := make([]runner.Job[replicate], n)
	for i := 0; i < n; i++ {
		jobs[i] = runner.Job[replicate]{
			Key: fmt.Sprintf("rep/%d", i),
			Run: func(ctx context.Context, seed int64) (replicate, error) {
				c := sc
				c.Seed = seed
				s, err := sims.Get(c)
				if err != nil {
					return replicate{}, err
				}
				res, err := harness.Drive(ctx, c, s.Network(), harness.Observe{Check: check})
				if err != nil {
					return replicate{}, err
				}
				if res.Failed() {
					return replicate{}, errors.New(harness.ReportFailure(checkDir, res))
				}
				st, terminals := &res.Stats, s.Topology().NumTerminals()
				sims.Put(s)
				return replicate{Seed: seed, AvgLatency: st.AvgLatency(), Throughput: st.Throughput(terminals), Spins: st.Spins}, nil
			},
		}
	}
	o := runner.Options{Workers: workers, Seed: sc.Seed, Timeout: timeout}
	if progress {
		o.Progress = func(e runner.Event) {
			fmt.Fprintf(os.Stderr, "spinsim: [%d/%d] %s (%.1fs)\n", e.Done, e.Total, e.Key, e.Elapsed.Seconds())
		}
	}
	reps, err := runner.Run(ctx, o, jobs)
	if err != nil {
		return err
	}
	fmt.Printf("config          %s routing=%s scheme=%s traffic=%s rate=%.3f cycles=%d\n",
		sc.Topology, sc.Routing, cmp.Or(sc.Scheme, "none"), sc.Traffic, sc.Rate, sc.Cycles)
	fmt.Printf("%-6s %20s %12s %12s %8s\n", "rep", "seed", "avg_latency", "throughput", "spins")
	for i, r := range reps {
		fmt.Printf("%-6d %20d %12.1f %12.4f %8d\n", i, r.Seed, r.AvgLatency, r.Throughput, r.Spins)
	}
	lat := make([]float64, n)
	tp := make([]float64, n)
	for i, r := range reps {
		lat[i], tp[i] = r.AvgLatency, r.Throughput
	}
	lm, ls := meanStd(lat)
	tm, ts := meanStd(tp)
	fmt.Printf("%-6s %20s %7.1f±%-4.1f %7.4f±%-.4f\n", "agg", fmt.Sprintf("%d seeds", n), lm, ls, tm, ts)
	return nil
}

// meanStd reports mean and sample standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}

// writeJSONFile marshals v, indented, to path.
func writeJSONFile(path string, v interface{}) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
