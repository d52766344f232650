// Package bench measures the simulator's hot path — ns, heap bytes and
// heap allocations per simulated cycle — over a fixed matrix of
// workloads (mesh, torus, dragonfly at low and saturation load, an empty
// mesh, the 1-VC SPIN regime, and two paper-scale presets), and compares
// runs against the committed baseline BENCH_sim.json.
//
// The baseline carries a machine-speed calibration: the time per
// iteration of a fixed integer kernel measured on the machine that wrote
// the file. A regression check scales the baseline's ns/cycle by the
// ratio of the current machine's calibration to the baseline's, so the
// gate tracks simulator regressions rather than hardware differences.
// Allocation and byte counts are machine-independent and compare
// directly.
//
// Regenerate the baseline after a deliberate perf change:
//
//	go test ./internal/bench -run TestBenchRegression -update
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	spin "repro"
	"repro/internal/sim"
)

// Workload is one benchmarked configuration.
type Workload struct {
	// Name keys the workload in BENCH_sim.json.
	Name string
	// Cfg is the simulation under test.
	Cfg spin.Config
	// Warmup cycles run before measurement: long enough that buffers,
	// scratch slices and the packet/SM pools reach steady state.
	Warmup int64
	// Cycles measured.
	Cycles int64
	// Attach, when set, attaches observers before the warm-up; the func it
	// returns, if any, is their verdict, read after the measurement. A row
	// named after a plain row plus CheckSuffix is that row under the
	// invariant checker, gated on its ratio to it: the checker's tax.
	Attach func(*sim.Network) func() error
}

// CheckSuffix marks a workload measured with the invariant checker on.
const CheckSuffix = "+check"

// Result is one workload's measurement.
type Result struct {
	Name           string  `json:"name"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
	Cycles         int64   `json:"cycles"`
	// BeforeNsPerCycle is the row as measured at the parent of the commit
	// that last changed what it times, on the machine and in the session
	// that wrote NsPerCycle: the "before" of a recorded speed-up. -update
	// carries it over; only the commit making the claim edits it.
	BeforeNsPerCycle float64 `json:"before_ns_per_cycle,omitempty"`
	// BeforeBytesPerCycle is BytesPerCycle measured likewise, at the parent
	// of the commit that last changed what the row allocates: the "before"
	// of a recorded allocation cut, carried over by -update the same way.
	BeforeBytesPerCycle float64 `json:"before_bytes_per_cycle,omitempty"`
	// DeliveredPerOffered is the flits the measured cycles delivered over
	// the flits the source offered in them (Rate per terminal per cycle);
	// 1 when nothing is offered. Spins counts the spins in those cycles.
	// Together they say whether the row times a network that moves: see
	// Stalled.
	DeliveredPerOffered float64 `json:"delivered_per_offered"`
	Spins               int64   `json:"spins"`
}

// StalledBelow is the delivered/offered ratio under which a row times a
// stalled network: its ns/cycle is the cost of a jam, not of traffic, and
// a speed-up measured only there is none.
const StalledBelow = 0.9

// Stalled reports whether the row delivered under StalledBelow of its
// offered load.
func (r Result) Stalled() bool { return r.DeliveredPerOffered < StalledBelow }

// Report is the BENCH_sim.json schema.
type Report struct {
	// Schema guards against comparing incompatible file versions.
	Schema int `json:"schema"`
	// GoVersion that produced the baseline (informational).
	GoVersion string `json:"go_version"`
	// CalibrationNs is the fixed integer kernel's ns/iteration on the
	// producing machine; regression checks scale ns/cycle by the ratio of
	// the current machine's calibration to this.
	CalibrationNs float64  `json:"calibration_ns"`
	Workloads     []Result `json:"workloads"`
	// Setup is what a run pays before its first cycle.
	Setup []SetupResult `json:"setup"`
	// Sweep is what a point of a figure pays around its cycles (measured by
	// the package's tests: see sweep_test.go).
	Sweep SweepResult `json:"sweep"`
}

// Cost is one set-up operation: best ns of its repetitions, heap bytes and
// objects of the first.
type Cost struct {
	Ns      float64 `json:"ns"`
	Bytes   float64 `json:"bytes"`
	Objects float64 `json:"objects"`
}

// SetupResult is one configuration's set-up cost: spin.New, Reset after a
// run, a Pool's Get of a shape it holds idle (Put included), and (Before and
// BeforeReset, carried by -update) spin.New at the commit before Reset and
// Reset at the parent of the commit that last changed what a rewind keeps.
type SetupResult struct {
	Name        string `json:"name"`
	New         Cost   `json:"new"`
	Reset       Cost   `json:"reset"`
	Pooled      Cost   `json:"pooled"`
	Before      Cost   `json:"before_new"`
	BeforeReset Cost   `json:"before_reset"`
}

// SweepResult is one figure's cost per point (Cost), its points, and the
// networks built to run them; Before and BeforeBuilds (carried by -update)
// are the same figure at the parent of the commit that last changed what a
// point pays for, measured in the same session.
type SweepResult struct {
	Name string `json:"name"`
	Cost
	Points       int  `json:"points"`
	Builds       int  `json:"networks_built"`
	Before       Cost `json:"before"`
	BeforeBuilds int  `json:"before_networks_built"`
}

// Schema is the current BENCH_sim.json schema version.
const Schema = 1

// Workloads is the benchmark matrix. Saturation rates sit at the highest
// load where source queues stay bounded (measured on this tree). Past that
// edge, where torus8x8/spin1vc runs, the pool still recycles every packet,
// but the growing backlog keeps taking new record blocks, so allocs/cycle
// is not zero.
func Workloads() []Workload {
	mk := func(name, topo, routing string, rate float64) Workload {
		return Workload{
			Name: name,
			Cfg: spin.Config{
				Topology:   topo,
				Routing:    routing,
				Scheme:     "spin",
				VCsPerVNet: 3,
				Traffic:    "uniform_random",
				Rate:       rate,
				Seed:       17,
			},
			Warmup: 4000,
			Cycles: 2000,
		}
	}
	// The two ends the load ladder misses: an empty network with no traffic
	// source at all (the per-cycle floor every idle router, link and
	// terminal adds to), and the paper's own 1-VC regime, where deadlocks
	// form and the SPIN probe/move/spin machinery runs hot.
	idle := mk("mesh8x8/idle", "mesh:8x8", "min_adaptive", 0)
	idle.Cfg.Traffic = ""
	spin1vc := mk("torus8x8/spin1vc", "torus:8x8", "favors_min", 0.10)
	spin1vc.Cfg.VCsPerVNet, spin1vc.Cfg.Traffic = 1, "bit_complement"
	return []Workload{
		idle,
		mk("mesh8x8/low", "mesh:8x8", "min_adaptive", 0.05),
		mk("mesh8x8/sat", "mesh:8x8", "min_adaptive", 0.28),
		mk("torus8x8/low", "torus:8x8", "min_adaptive", 0.05),
		mk("torus8x8/sat", "torus:8x8", "min_adaptive", 0.45),
		spin1vc,
		mk("dfly64/low", "dragonfly:4,4,4,16", "ugal_spin", 0.05),
		mk("dfly64/sat", "dragonfly:4,4,4,16", "ugal_spin", 0.20),
	}
}

// ScaleWorkloads is the paper-scale end of the matrix: the 1024-node
// Table III dragonfly and a 4096-router mesh, the rows where per-router
// cost is set by cache misses rather than instructions. Cycle counts are
// short — one cycle of the 4096-router mesh costs ≈ 5 ms, a third of a
// whole mesh8x8/low measurement window — and the warm-up runs past the fill
// (measured, uniform random, seed 17): the dragonfly's packets in flight
// level off by cycle 200, the mesh's by cycle 500, and both deliver their
// offered load from then on. What a cycle allocates after the fill is the
// first touch of VCs (one buffer each, then its growth to the depth). In
// 3 000 warm-up cycles the dragonfly's falls from 1.3 KB a cycle at cycle
// 200 into a 50–90 B band it reaches by cycle 1 000, and the mesh's from
// 12.9 KB to ≈ 0.3 KB, where it still halves about every 2 500 cycles. The
// mesh runs at 0.02: at 0.05 (80 % of its uniform bisection bound) and at
// 0.03 it jams within 1 000 cycles.
func ScaleWorkloads() []Workload {
	mk := func(name, preset string, rate float64) Workload {
		p, err := spin.PresetByName(preset)
		if err != nil {
			panic(err) // presets are compiled in; absence is a bug
		}
		cfg := p.Config
		cfg.Traffic = "uniform_random"
		cfg.Rate = rate
		cfg.Seed = 17
		return Workload{Name: name, Cfg: cfg, Warmup: 3000, Cycles: 100}
	}
	return []Workload{
		mk("dfly1024/low", "dfly1024", 0.05),
		mk("mesh64x64/low", "mesh64x64", 0.02),
	}
}

// Measure runs one workload and reports per-cycle cost. The warmup phase
// is excluded; a GC between warmup and measurement keeps the measured
// Mallocs delta attributable to the measured cycles.
func Measure(w Workload) (Result, error) {
	s, err := spin.New(w.Cfg)
	if err != nil {
		return Result{}, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	var verdict func() error
	if w.Attach != nil {
		verdict = w.Attach(s.Network())
	}
	s.Run(w.Warmup)
	runtime.GC()
	var before, after runtime.MemStats
	was := *s.Stats()
	runtime.ReadMemStats(&before)
	start := time.Now()
	s.Run(w.Cycles)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if verdict != nil {
		if err := verdict(); err != nil {
			return Result{}, fmt.Errorf("bench %s: %w", w.Name, err)
		}
	}
	n := float64(w.Cycles)
	delivered := 1.0
	if offered := w.Cfg.Rate * n * float64(s.Topology().NumTerminals()); offered > 0 {
		delivered = float64(st.EjectedFlits-was.EjectedFlits) / offered
	}
	return Result{
		Name:                w.Name,
		NsPerCycle:          float64(elapsed.Nanoseconds()) / n,
		AllocsPerCycle:      float64(after.Mallocs-before.Mallocs) / n,
		BytesPerCycle:       float64(after.TotalAlloc-before.TotalAlloc) / n,
		Cycles:              w.Cycles,
		DeliveredPerOffered: delivered,
		Spins:               st.Spins - was.Spins,
	}, nil
}

// SetupWorkloads are the setup block's configurations: the Fig. 7 mesh, the
// small dragonfly and the 1024-node preset.
func SetupWorkloads() (ws []Workload) {
	for _, w := range append(Workloads(), ScaleWorkloads()...) {
		if w.Name == "mesh8x8/low" || w.Name == "dfly64/low" || w.Name == "dfly1024/low" {
			ws = append(ws, w)
		}
	}
	return ws
}

// dirtyCycles is how long MeasureSetup runs w before each rewind, so that
// there are buffers, free lists and in-flight traffic to rewind: a fifth of
// w's measured window (400 cycles on the 8x8 and dfly64 rows, 20 on the
// 1024-node dragonfly), whatever its warm-up.
func (w Workload) dirtyCycles() int64 { return w.Cycles / 5 }

// MeasureSetup times w's build, and its rewind after a short run (see
// dirtyCycles).
func MeasureSetup(w Workload, reps int) (SetupResult, error) {
	s, err := spin.New(w.Cfg)
	if err != nil {
		return SetupResult{}, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	cost := func(run int64, op func() error) (c Cost) {
		for i := 0; i < reps && err == nil; i++ {
			s.Run(run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err = op()
			ns := float64(time.Since(start).Nanoseconds())
			runtime.ReadMemStats(&after)
			if i == 0 {
				c = Cost{ns, float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)}
			}
			c.Ns = min(c.Ns, ns)
		}
		return c
	}
	res := SetupResult{Name: w.Name}
	res.New = cost(0, func() error { _, err := spin.New(w.Cfg); return err })
	res.Reset = cost(w.dirtyCycles(), func() error { return s.Reset(w.Cfg) })
	pool := spin.NewPool(1)
	res.Pooled = cost(w.dirtyCycles(), func() (err error) { pool.Put(s); s, err = pool.Get(w.Cfg); return err })
	return res, err
}

// calibrationSink defeats dead-code elimination of the kernel.
var calibrationSink uint64

// Calibrate times a fixed xorshift kernel and reports ns/iteration — a
// pure-integer, cache-resident proxy for the machine's scalar speed. The
// minimum of three runs rejects scheduling noise.
func Calibrate() float64 {
	const iters = 1 << 25
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / iters
		calibrationSink += x
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}

// Collect measures every workload of the matrix, then extra (best ns of reps
// runs each; allocation counts come from the first run, which is
// deterministic) and stamps the report with the machine calibration.
func Collect(reps int, extra ...Workload) (Report, error) {
	rep := Report{Schema: Schema, GoVersion: runtime.Version(), CalibrationNs: Calibrate()}
	for _, w := range append(append(Workloads(), ScaleWorkloads()...), extra...) {
		var best Result
		for i := 0; i < reps; i++ {
			r, err := Measure(w)
			if err != nil {
				return Report{}, err
			}
			if i == 0 {
				best = r
			} else if r.NsPerCycle < best.NsPerCycle {
				best.NsPerCycle = r.NsPerCycle
			}
		}
		rep.Workloads = append(rep.Workloads, best)
	}
	for _, w := range SetupWorkloads() {
		r, err := MeasureSetup(w, 5*reps) // sub-millisecond operations: best of more
		if err != nil {
			return Report{}, err
		}
		rep.Setup = append(rep.Setup, r)
	}
	return rep, nil
}

// Load reads a report from path.
func Load(path string) (Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("bench: %s has schema %d, want %d (regenerate with -update)", path, r.Schema, Schema)
	}
	return r, nil
}

// Write emits the report as indented JSON to path.
func (r Report) Write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Find returns the named workload result.
func (r Report) Find(name string) (Result, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Result{}, false
}
