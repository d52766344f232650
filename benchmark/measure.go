package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// loadGoroutines is how many goroutines generate load: serve clients,
// server workers and sweep workers. It is fixed at the core count of the
// box the sizes were measured on, so numbers from different machines
// describe the same workload.
const loadGoroutines = 2

// setupRepeats is how many times a workload's set-up runs; setup_s is the
// median and the timed part uses what the last repeat built. Five, so the
// median shrugs off the cold first repeat and one disturbed warm one.
const setupRepeats = 5

// config is one invocation's parameters. Seed is the only one that
// reaches input generation.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every size (cycles, key counts); the package test
	// runs at 1/200.
	scale  float64
	traced bool
	// outDir receives trace files and the serve workload's scratch
	// cache directory.
	outDir string
	// update collects observed digests and exact counts for
	// expected.json instead of comparing against it.
	update *expectedSet
}

// checkExpected reports whether outputs are compared against
// expected.json: only the default seed at full size has entries there.
func (c config) checkExpected() bool { return c.seed == 1 && c.scale == 1 }

// cycles scales a cycle count, keeping enough cycles for a network to
// carry traffic at all.
func (c config) cycles(n int64) int64 {
	if s := int64(float64(n) * c.scale); s > 50 {
		return s
	}
	return 50
}

// budget is the timed part's length; a traced run splits it between the
// untraced reference passes and the traced ones.
func (c config) budget() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		d /= 2
	}
	return d
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	// reasons holds the first few failure descriptions, for stderr.
	reasons []string
	// e2e holds the end-to-end metrics (untraced passes), layer the
	// per-layer ones (traced passes and layer probes).
	e2e, layer map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation; a non-empty reason marks it failed.
func (o *outcome) op(reason string) {
	o.attempted++
	if reason != "" {
		o.fail(reason)
	}
}

// fail marks one already-counted operation as failed.
func (o *outcome) fail(reason string) {
	o.failed++
	if len(o.reasons) < 8 {
		o.reasons = append(o.reasons, reason)
	}
}

// meter accumulates the bytes allocated inside the timed sections.
type meter struct {
	allocBytes uint64
	mem        runtime.MemStats
}

// start and stop bracket a timed section, outside the caller's clock.
func (m *meter) start() { runtime.ReadMemStats(&m.mem) }

func (m *meter) stop() {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocBytes += mem.TotalAlloc - m.mem.TotalAlloc
}

// liveHeapMB forces a collection and returns the heap still referenced.
// Call it while the objects of interest are reachable. It also leaves the
// next timed section an empty heap and a reset collector.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repeatSetup runs a workload's set-up setupRepeats times and returns the
// median wall time in seconds. The first repeat is cold and the others
// warm, so the median is a warm set-up.
func repeatSetup(f func() error) (float64, error) {
	walls := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// runPasses calls pass until the budget is spent, rounding to the nearest
// whole pass, and at least twice so outputs can be compared pass against
// pass.
func runPasses(budget time.Duration, pass func(n int) error) error {
	t0 := time.Now()
	for n := 0; ; n++ {
		if n >= 2 {
			elapsed := time.Since(t0)
			if elapsed+elapsed/time.Duration(2*n) >= budget {
				return nil
			}
		}
		if err := pass(n); err != nil {
			return err
		}
	}
}

// best is the estimator behind every end-to-end time: the smallest of
// repeated timings of the same work. The boxes this runs on are shared:
// neighbours slow memory-bound code by 20–60 % for seconds to minutes at
// a time and never speed it up, so the fastest repeat is the one closest
// to what the code itself costs, and it moves far less between runs than
// a mean or a median does.
func best(v []float64) float64 { return slices.Min(v) }

// bestPieces folds one repeat's timings of a sequence of calls into the
// element-wise best so far.
func bestPieces(acc, pieces []float64) []float64 {
	if acc == nil {
		return slices.Clone(pieces)
	}
	for i, p := range pieces {
		acc[i] = min(acc[i], p)
	}
	return acc
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// fast is the quantile that stands for "the quickest few" where repeats
// are too many or too jittery for the single smallest to be trusted: low,
// because on a shared box the quickest repeats are the undisturbed ones —
// across ten runs the 5th percentile of a period's hit latencies spread
// 4 % where their median spread 28 %.
const fast = 0.05

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the p-quantile of v by linear interpolation between
// closest ranks. It sorts v in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := p * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// timeFast runs f reps times and returns its undisturbed wall time: the
// fast quantile, which for a handful of reps is the fastest one.
func timeFast(reps int, f func()) time.Duration {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		f()
		walls[i] = time.Since(t0).Seconds()
	}
	return time.Duration(percentile(walls, fast) * float64(time.Second))
}
