// Command benchmark is the repo benchmark that BENCHMARK.json describes:
// four workloads, from one Network.Step to one spind request, each run
// with tracing off for the end-to-end metrics and once more under the
// benchmark's own span recorder for the per-layer ones. See README.md.
//
//	bash benchmark/run.sh --workload sim_sat --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --all                # every workload, both ways, as a table
//	bash benchmark/run.sh --agree              # the whole set twice, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names a metric and its unit. BENCHMARK.json carries the same
// names and units plus direction and bound; bench_test.go keeps the two in
// step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_ms", "ms"},
	{"slow_op_ms", "ms"},
	{"alloc_b_per_work", "B"},
}

var legNames = []string{
	"mesh8x8_sat", "torus8x8_sat", "dfly64_sat", "torus8x8_spin1vc",
	"mesh8x8_closed_think", "mesh8x8_burst", "mesh16x16_low", "dfly1024_low", "mesh8x8_trace_gaps",
}

// perLayer lists every per-layer metric. A traced run prints all of
// them; one a workload never reaches reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range []metricDef{
		{"sim.step_ns_per_cycle.", "ns"},
		{"sim.ns_per_link_traversal.", "ns"},
		{"sim.allocs_per_kcycle.", "count"},
		{"harness.sim_setup_ms.", "ms"},
		{"sim.live_heap_mb.", "MB"},
	} {
		for _, leg := range legNames {
			defs = append(defs, metricDef{m.name + leg, m.unit})
		}
	}
	return append(defs, []metricDef{
		{"sim.chunk_cover_ratio", "ratio"},
		{"sim.idle_floor_ns_per_cycle", "ns"},
		{"sim.shard2_speedup.dfly1024_low", "ratio"},
		{"sim.checker_tax.mesh8x8_sat", "ratio"},
		{"sim.flightrec_tax.mesh8x8_sat", "ratio"},
		{"telemetry.tax.mesh8x8_sat", "ratio"},
		{"spin.spins", "count"},
		{"spin.probes_sent", "count"},
		{"spin.recoveries_per_probe", "ratio"},
		{"spin.sm_dropped", "count"},
		{"topology.build_ms.dfly1024_low", "ms"},
		{"topology.build_ms.mesh16x16_low", "ms"},
		{"traffic.trace_decode_mpkts_per_s", "M/s"},
		{"runner.jobs", "count"},
		{"runner.job_ms_p50", "ms"},
		{"runner.job_ms_p95", "ms"},
		{"runner.worker_utilisation", "ratio"},
		{"runner.pool_submit_us", "us"},
		{"exp.points", "count"},
		{"exp.ms_per_point", "ms"},
		{"exp.encode_ms", "ms"},
		{"harness.decode_us", "us"},
		{"harness.validate_us", "us"},
		{"harness.canonical_us", "us"},
		{"cache.keyof_us", "us"},
		{"cache.get_mem_us", "us"},
		{"cache.get_disk_us", "us"},
		{"cache.put_us", "us"},
		{"cache.hits", "count"},
		{"cache.misses", "count"},
		{"cache.shared", "count"},
		{"cache.errors", "count"},
		{"cache.disk_hit_share", "ratio"},
		{"serve.hit_p50_us", "us"},
		{"serve.hit_p99_us", "us"},
		{"serve.hit_big_p50_us", "us"},
		{"serve.hit_self_us", "us"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.miss_p95_ms", "ms"},
		{"serve.miss_checked_p50_ms", "ms"},
		{"serve.miss_self_ms", "ms"},
		{"serve.live_heap_mb", "MB"},
		{"otrace.trace_tax_ratio", "ratio"},
		{"otrace.span_cover_ratio", "ratio"},
		{"otrace.span_sum_ratio", "ratio"},
		{"bench.harness_floor_us", "us"},
		{"bench.trace_overhead_ratio", "ratio"},
	}...)
}()

// workloads maps each workload name to its runner, in BENCHMARK.json's
// order.
var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"sim_sat", func(c config) (*outcome, error) { return runSim(c, "sim_sat") }},
	{"sim_idle", func(c config) (*outcome, error) { return runSim(c, "sim_idle") }},
	{"sweep_fig7", runSweep},
	{"serve_mix", runServe},
}

// metric and result are the shape of the line a run prints last.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload and shapes its result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func runWorkload(name string, c config) (result, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		// Start from an empty heap, so one workload's garbage is not
		// another's allocation or live-heap figure.
		debug.FreeOSMemory()
		o, err := w.run(c)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range o.reasons {
			fmt.Fprintf(os.Stderr, "benchmark: %s: failed op: %s\n", name, r)
		}
		res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
		defs, values := endToEnd, o.e2e
		if c.traced {
			defs, values = perLayer, o.layer
		}
		for _, d := range defs {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
		// A value under a name the lists above lack would be dropped
		// silently; a renamed leg would do that.
		for k := range values {
			if _, ok := res.Metrics[k]; !ok {
				return result{}, fmt.Errorf("%s: measured %q, which is not a declared metric", name, k)
			}
		}
		return res, nil
	}
	return result{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var c config
	var workload string
	var trace int
	var all, agree, update bool
	flag.StringVar(&workload, "workload", "", "workload to run: sim_sat, sim_idle, sweep_fig7 or serve_mix")
	flag.Int64Var(&c.seed, "seed", 1, "input seed; the only argument that reaches input generation")
	flag.Float64Var(&c.seconds, "seconds", 24, "length of the timed part")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&all, "all", false, "run every workload untraced then traced and print a table")
	flag.BoolVar(&agree, "agree", false, "run every workload twice and compare the end-to-end metrics to their bounds")
	flag.BoolVar(&update, "update", false, "rewrite expected.json from this run (seed 1 only)")
	flag.Parse()
	c.scale = 1 // only the package test runs smaller
	c.traced = trace == 1
	c.outDir = "benchmark/out"
	if update {
		if c.seed != 1 {
			fatal(fmt.Errorf("-update needs seed 1"))
		}
		c.update = &expectedSet{Digests: map[string]string{}, Counts: map[string]int64{}}
	}
	// The sizes assume the load generators have a core each; more cores
	// than that only add scheduler noise.
	runtime.GOMAXPROCS(loadGoroutines)

	var err error
	switch {
	case agree:
		err = runAgree(c)
	case all:
		err = runAll(c)
	default:
		var res result
		if res, err = runWorkload(workload, c); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err == nil && update {
		err = writeExpected("benchmark/expected.json", c.update)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// manifest is the part of BENCHMARK.json the table and -agree need.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadManifest() (*manifest, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runAll prints every metric of every workload by name: the end-to-end
// ones with unit, direction and bound, then the per-layer ones the
// workload reaches.
func runAll(c config) error {
	man, err := loadManifest()
	if err != nil {
		return err
	}
	failed := int64(0)
	for _, w := range workloads {
		c.traced = false
		plain, err := runWorkload(w.name, c)
		if err != nil {
			return err
		}
		c.traced = true
		traced, err := runWorkload(w.name, c)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s  seed=%d  untraced: ops_attempted=%d ops_failed=%d  traced: ops_attempted=%d ops_failed=%d\n",
			w.name, c.seed, plain.Attempted, plain.Failed, traced.Attempted, traced.Failed)
		for _, e := range man.EndToEnd {
			fmt.Printf("  %-44s %14.4f %-6s better=%-6s bound=%.2f\n", e.Name, plain.Metrics[e.Name].Value, e.Unit, e.Better, e.Bound)
		}
		for _, d := range perLayer {
			if v := traced.Metrics[d.name].Value; v != 0 {
				fmt.Printf("  %-44s %14.4f %s\n", d.name, v, d.unit)
			}
		}
		failed += plain.Failed + traced.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// disagreement is how far apart two readings of one metric are, as a
// share of the smaller: the larger of "b worse than a" and "a worse than
// b". A reading that is not a positive number agrees with nothing (NaN
// fails every comparison against a bound).
func disagreement(a, b float64) float64 {
	if !(a > 0 && b > 0) {
		return math.NaN()
	}
	return math.Abs(b-a) / min(a, b)
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code.
var exactCounts = []string{"exp.points", "runner.jobs", "spin.spins", "spin.probes_sent", "spin.sm_dropped"}

// runAgree runs the whole set twice in one invocation and prints, for
// every end-to-end metric, how far apart the two runs are against the
// metric's bound. Both runs are the same code, so a difference beyond the
// bound in either direction is a disagreement, as is a value that is not a
// positive number. It fails on any disagreement or if an exact count
// differs.
func runAgree(c config) error {
	man, err := loadManifest()
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		var plain, traced [2]result
		for i := range plain {
			c.traced = false
			if plain[i], err = runWorkload(w.name, c); err != nil {
				return err
			}
			c.traced = true
			if traced[i], err = runWorkload(w.name, c); err != nil {
				return err
			}
			if f := plain[i].Failed + traced[i].Failed; f > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d failed ops", w.name, f))
			}
		}
		fmt.Printf("\n%s\n", w.name)
		for _, e := range man.EndToEnd {
			a, b := plain[0].Metrics[e.Name].Value, plain[1].Metrics[e.Name].Value
			apart, verdict := disagreement(a, b), "ok"
			if !(apart <= e.Bound) {
				verdict = "DISAGREE"
				bad = append(bad, w.name+"/"+e.Name)
			}
			fmt.Printf("  %-20s %14.4f %14.4f %-5s apart by %6.2f%% (bound %2.0f%%)  %s\n", e.Name, a, b, e.Unit, apart*100, e.Bound*100, verdict)
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a != b {
				bad = append(bad, w.name+"/"+name)
			}
			if a != 0 || b != 0 {
				fmt.Printf("  %-20s %14.0f %14.0f count exact=%v\n", name, a, b, a == b)
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("runs disagree: %s", strings.Join(bad, ", "))
	}
	return nil
}
