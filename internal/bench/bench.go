// Package bench measures the simulator's hot path — ns, heap bytes and
// heap allocations per simulated cycle — over a fixed matrix of
// workloads (mesh, torus, dragonfly at low and saturation load, an empty
// mesh, the 1-VC SPIN regime, and two paper-scale presets), and compares
// runs against the committed baseline BENCH_sim.json.
//
// Every figure of the package comes out of one measuring loop, measure:
// rounds of operations, each after a runtime.GC and between two
// ReadMemStats, reporting the best ns per unit over the rounds and the heap
// bytes and objects per unit of the first. A matrix row's operation is the
// next Cycles-long window of one network, built, attached and warmed once,
// so its first round is the row as measured alone after its warm-up.
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
	"fmt"
	"runtime"
	"slices"
	"strings"
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
	// invariant checker, measured beside it and gated on its ratio to it:
	// the checker's tax.
	Attach func(*sim.Network) func() error
}

// CheckSuffix marks a workload measured with the invariant checker on.
const CheckSuffix = "+check"

// Result is one workload's measurement. A checked row's NsPerCycle is its
// plain row's times the median of their rounds' ratios, so the ratio of the
// two rows is the checker's tax as the rounds measured it.
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

// Header opens every BENCH_*.json file.
type Header struct {
	// Schema guards against comparing incompatible file versions.
	Schema int `json:"schema"`
	// GoVersion that produced the baseline (informational).
	GoVersion string `json:"go_version"`
	// CalibrationNs is the fixed integer kernel's ns/iteration on the
	// producing machine; regression checks scale ns by the ratio of the
	// current machine's calibration to this.
	CalibrationNs float64 `json:"calibration_ns"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Header
	Workloads []Result `json:"workloads"`
	// Setup is what a run pays before its first cycle.
	Setup []SetupResult `json:"setup"`
	// Sweep is what a point of a figure pays around its cycles (measured by
	// the package's tests: see sweep_test.go).
	Sweep SweepResult `json:"sweep"`
}

// Cost is one measured operation per unit (cycle, build, point, request):
// best ns of its rounds, heap bytes and objects of the first.
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

// calibrationSink defeats dead-code elimination of the kernel.
var calibrationSink uint64

// xorshift runs the calibration kernel for n iterations.
func xorshift(n int) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
}

// Calibrate times the xorshift kernel and reports ns/iteration — a
// pure-integer, cache-resident proxy for the machine's scalar speed. The
// best of three rounds rejects scheduling noise.
func Calibrate() float64 {
	const iters = 1 << 25
	s, _ := measure(3, []op{{run: func() (float64, error) { xorshift(iters); return iters, nil }}}) // the kernel cannot fail
	return s[0].Ns
}

// op is one operation of a measuring round: prep, when set, readies it
// untimed; run does it and reports how many units it did.
type op struct {
	prep func()
	run  func() (units float64, err error)
}

// sample is what measure reports of one op: best ns per unit, heap bytes
// and objects per unit of the first round, and each round's ns per unit.
type sample struct {
	Cost
	rounds []float64
}

// measure is the package's one measuring loop: rounds times, it runs every
// op once, in order, each after a runtime.GC and between two ReadMemStats,
// so a busy spell of the machine lands on every op of a round alike.
func measure(rounds int, ops []op) ([]sample, error) {
	out := make([]sample, len(ops))
	for r := 0; r < rounds; r++ {
		for i, o := range ops {
			if o.prep != nil {
				o.prep()
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			units, err := o.run()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			s, ns := &out[i], float64(elapsed.Nanoseconds())/units
			if r == 0 {
				s.Cost = Cost{ns, float64(after.TotalAlloc-before.TotalAlloc) / units, float64(after.Mallocs-before.Mallocs) / units}
			}
			s.Ns, s.rounds = min(s.Ns, ns), append(s.rounds, ns)
		}
	}
	return out, nil
}

// Collect measures every row of the matrix over rounds rounds, and stamps
// the report with the machine calibration. Each twin (a checked row) is
// measured in the same rounds as the row it names, four times as many: its
// tax is the median of the rounds' ratios, one round's ratio moves by a
// fifth either way on a shared machine, and torus8x8/spin1vc's rises over
// its first four windows as its backlog grows. The setup block's
// sub-millisecond operations run five times as many rounds.
func Collect(rounds int, twins ...Workload) (Report, error) {
	rep := Report{Header: Header{Schema, runtime.Version(), Calibrate()}}
	for _, w := range append(Workloads(), ScaleWorkloads()...) {
		group, n := []Workload{w}, rounds
		for _, x := range twins {
			if strings.TrimSuffix(x.Name, CheckSuffix) == w.Name {
				group, n = append(group, x), 4*rounds
			}
		}
		rs, err := measureRows(n, group)
		if err != nil {
			return Report{}, err
		}
		rep.Workloads = append(rep.Workloads, rs...)
	}
	names, ops, err := setupOps()
	var samples []sample
	if err == nil {
		samples, err = measure(5*rounds, ops)
	}
	for i := 0; err == nil && i < len(ops); i += 3 {
		rep.Setup = append(rep.Setup, SetupResult{Name: strings.TrimSuffix(names[i], "/new"),
			New: samples[i].Cost, Reset: samples[i+1].Cost, Pooled: samples[i+2].Cost})
	}
	return rep, err
}

// measureRows builds, attaches and warms each of ws once, then times the
// next Cycles-long window of every one per round, so that the first round
// is each row as measured alone after its warm-up. ws[0] is a plain row and
// the rest its twins, whose NsPerCycle is ws[0]'s times the median of their
// rounds' ratios to it.
func measureRows(rounds int, ws []Workload) ([]Result, error) {
	res, ops := make([]Result, len(ws)), make([]op, len(ws))
	verdicts := make([]func() error, len(ws))
	for i, w := range ws {
		s, err := spin.New(w.Cfg)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", w.Name, err)
		}
		if w.Attach != nil {
			verdicts[i] = w.Attach(s.Network())
		}
		s.Run(w.Warmup)
		r, n, st := &res[i], float64(w.Cycles), s.Stats()
		*r = Result{Name: w.Name, Cycles: w.Cycles, Spins: -1}
		ops[i].run = func() (float64, error) {
			ejected, spins := st.EjectedFlits, st.Spins
			s.Run(w.Cycles)
			if r.Spins < 0 { // the first window
				r.Spins, r.DeliveredPerOffered = st.Spins-spins, 1
				if offered := w.Cfg.Rate * n * float64(s.Topology().NumTerminals()); offered > 0 {
					r.DeliveredPerOffered = float64(st.EjectedFlits-ejected) / offered
				}
			}
			return n, nil
		}
	}
	samples, err := measure(rounds, ops)
	for i, smp := range samples {
		if err == nil && verdicts[i] != nil {
			if err = verdicts[i](); err != nil {
				err = fmt.Errorf("bench %s: %w", ws[i].Name, err)
			}
		}
		r := &res[i]
		r.NsPerCycle, r.AllocsPerCycle, r.BytesPerCycle = smp.Ns, smp.Objects, smp.Bytes
		if i > 0 {
			for k := range smp.rounds {
				smp.rounds[k] /= samples[0].rounds[k]
			}
			r.NsPerCycle = res[0].NsPerCycle * median(smp.rounds)
		}
	}
	return res, err
}

// median returns the middle of xs (the mean of the middle two for an even
// count), reordering xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// setupOps are the setup block's operations on the Fig. 7 mesh, the small
// dragonfly and the 1024-node preset, three per configuration: spin.New,
// Reset after a short run, and a Pool's Put and Get of the same. The run, a
// fifth of the row's measured window (400 cycles on the 8x8 and dfly64
// rows, 20 on the 1024-node dragonfly), leaves buffers, free lists and
// in-flight traffic to rewind.
func setupOps() (names []string, ops []op, err error) {
	for _, w := range append(Workloads(), ScaleWorkloads()...) {
		if w.Name != "mesh8x8/low" && w.Name != "dfly64/low" && w.Name != "dfly1024/low" {
			continue
		}
		s, err := spin.New(w.Cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench %s: %w", w.Name, err)
		}
		pool, dirty := spin.NewPool(1), func() { s.Run(w.Cycles / 5) }
		names = append(names, w.Name+"/new", w.Name+"/reset", w.Name+"/pooled")
		ops = append(ops,
			op{run: func() (float64, error) { _, err := spin.New(w.Cfg); return 1, err }},
			op{prep: dirty, run: func() (float64, error) { return 1, s.Reset(w.Cfg) }},
			op{prep: dirty, run: func() (_ float64, err error) { pool.Put(s); s, err = pool.Get(w.Cfg); return 1, err }})
	}
	return names, ops, nil
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
