package sim_test

import (
	"math"
	"math/bits"
	"sort"
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// telemetryRun builds a SPIN configuration with recovery activity and a
// measurement window, shared by the telemetry audits below. The rate
// picks the regime: light loads eject measured packets steadily (the
// histogram audit needs ejections), saturating loads spin (the window
// audit needs SPIN activity).
func telemetryRun(t *testing.T, rate float64) *spin.Simulation {
	t.Helper()
	s, err := spin.New(spin.Config{
		Topology:   "mesh:8x8",
		Routing:    "favors_min",
		Scheme:     "spin",
		Traffic:    "uniform_random",
		Rate:       rate,
		VCsPerVNet: 1,
		Warmup:     500,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTelemetryHistMatchesStats audits the latency histogram against
// both the engine's incremental sums and a brute-force recount from the
// packet_eject events: the histogram must observe exactly the measurement-window
// packets Stats counts, and its percentile estimates must land inside
// the log₂ bucket of the exact order statistic (the acceptance
// cross-check for p50/p95/p99).
func TestTelemetryHistMatchesStats(t *testing.T) {
	s := telemetryRun(t, 0.08)
	net := s.Network()
	tele := net.AttachTelemetry(sim.TelemetryOptions{Hist: true})
	start := net.Config().StatsStart
	var exact []int64
	net.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
		if e.Cycle-e.Arg >= start { // generated inside the measurement window
			exact = append(exact, e.Arg)
		}
	}))
	s.Run(4000)

	st := net.Stats()
	h := tele.Latency()
	if h.Count() == 0 {
		t.Fatal("histogram observed nothing; the audit exercised nothing")
	}
	if h.Count() != st.EjectedMeasured {
		t.Errorf("hist count %d != EjectedMeasured %d", h.Count(), st.EjectedMeasured)
	}
	if h.Sum() != st.LatencySum {
		t.Errorf("hist sum %d != LatencySum %d", h.Sum(), st.LatencySum)
	}
	if h.Max() != st.MaxLatency {
		t.Errorf("hist max %d != MaxLatency %d", h.Max(), st.MaxLatency)
	}

	// Brute-force recount from the packet_eject events.
	var sum, max int64
	for _, v := range exact {
		sum += v
		if v > max {
			max = v
		}
	}
	if int64(len(exact)) != h.Count() || sum != h.Sum() || max != h.Max() {
		t.Errorf("recount (n=%d sum=%d max=%d) != hist (n=%d sum=%d max=%d)",
			len(exact), sum, max, h.Count(), h.Sum(), h.Max())
	}

	// Percentiles: the estimate must lie inside the log₂ bucket holding
	// the exact rank-ceil(q·n) order statistic, and never above the
	// observed max.
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.50, 0.95, 0.99} {
		rank := int64(math.Ceil(q * float64(len(exact))))
		if rank < 1 {
			rank = 1
		}
		want := exact[rank-1]
		lo, hi := int64(0), int64(0)
		if want > 0 {
			lo = int64(1) << uint(bits.Len64(uint64(want))-1)
			hi = 2*lo - 1
		}
		got := h.Quantile(q)
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("q%.0f: estimate %g outside bucket [%d,%d] of exact %d", q*100, got, lo, hi, want)
		}
		if got > float64(h.Max()) {
			t.Errorf("q%.0f: estimate %g above observed max %d", q*100, got, h.Max())
		}
	}
	sum2 := tele.LatencySummary()
	if sum2.Count != h.Count() || sum2.Max != h.Max() {
		t.Errorf("summary disagrees with histogram: %+v", sum2)
	}
	if !(sum2.P50 <= sum2.P95 && sum2.P95 <= sum2.P99) {
		t.Errorf("percentiles not monotone: %+v", sum2)
	}
	if avg := st.AvgLatency(); math.Abs(sum2.Avg-avg) > 1e-9 {
		t.Errorf("summary avg %g != Stats avg %g", sum2.Avg, avg)
	}
}

// TestTelemetryWindowsSumToStats audits the time-series sampler: the
// windows must tile the run exactly, their flit and spin deltas must
// sum to the engine's unconditional totals, instantaneous gauges must
// match the network's own counters at flush, and every fraction must be
// a fraction.
func TestTelemetryWindowsSumToStats(t *testing.T) {
	s := telemetryRun(t, 0.30)
	net := s.Network()
	const window, cycles = 128, 3000 // deliberately not a multiple
	tele := net.AttachTelemetry(sim.TelemetryOptions{Window: window})
	s.Run(cycles)
	tele.Flush()

	ts := tele.TimeSeries()
	if ts == nil || ts.Schema != sim.TimeSeriesSchema || ts.Window != window {
		t.Fatalf("bad time-series header: %+v", ts)
	}
	if want := cycles/window + 1; len(ts.Samples) != want {
		t.Fatalf("got %d windows, want %d", len(ts.Samples), want)
	}
	var injF, ejF, spins, span int64
	next := int64(0)
	for i, w := range ts.Samples {
		if w.Start != next {
			t.Fatalf("window %d starts at %d, want %d (windows must tile)", i, w.Start, next)
		}
		if i < len(ts.Samples)-1 && w.Cycles != window {
			t.Fatalf("interior window %d has width %d", i, w.Cycles)
		}
		next = w.Start + w.Cycles
		injF += w.InjectedFlits
		ejF += w.EjectedFlits
		spins += w.Spins
		span += w.Cycles
		if w.LinkBusy < 0 || w.LinkBusy > 1 || w.SMBusy < 0 || w.SMBusy > 1 {
			t.Errorf("window %d busy fractions out of range: %+v", i, w)
		}
		for vn, occ := range w.VCOccupancy {
			if occ < 0 || occ > 1 {
				t.Errorf("window %d vnet %d occupancy %g out of [0,1]", i, vn, occ)
			}
		}
	}
	st := net.Stats()
	if span != cycles {
		t.Errorf("windows span %d cycles, ran %d", span, cycles)
	}
	if injF != st.InjectedFlits {
		t.Errorf("window injected-flit sum %d != Stats %d", injF, st.InjectedFlits)
	}
	if ejF != st.EjectedFlits {
		t.Errorf("window ejected-flit sum %d != Stats %d", ejF, st.EjectedFlits)
	}
	if spins != st.Spins {
		t.Errorf("window spin sum %d != Stats %d", spins, st.Spins)
	}
	if spins == 0 {
		t.Error("saturated SPIN run recorded no spins; the audit exercised nothing")
	}
	last := ts.Samples[len(ts.Samples)-1]
	if last.QueuedPackets != net.QueuedPackets() || last.InFlight != net.InFlight() {
		t.Errorf("final gauges (queued=%d inflight=%d) != network (queued=%d inflight=%d)",
			last.QueuedPackets, last.InFlight, net.QueuedPackets(), net.InFlight())
	}
	// Flushing twice must not mint an empty duplicate window.
	tele.Flush()
	if got := len(tele.TimeSeries().Samples); got != len(ts.Samples) {
		t.Errorf("double flush grew samples: %d -> %d", len(ts.Samples), got)
	}
}

// TestTelemetryMidRunAttach pins that attaching after warmup baselines
// the deltas: windows begin at the attach cycle and count only flits
// injected afterwards.
func TestTelemetryMidRunAttach(t *testing.T) {
	s := telemetryRun(t, 0.10)
	net := s.Network()
	s.Run(777)
	before := net.Stats().InjectedFlits
	tele := net.AttachTelemetry(sim.TelemetryOptions{Window: 100})
	s.Run(1000)
	tele.Flush()
	ts := tele.TimeSeries()
	if len(ts.Samples) == 0 || ts.Samples[0].Start != 777 {
		t.Fatalf("windows do not start at attach cycle: %+v", ts.Samples[0])
	}
	var injF int64
	for _, w := range ts.Samples {
		injF += w.InjectedFlits
	}
	if want := net.Stats().InjectedFlits - before; injF != want {
		t.Errorf("post-attach window sum %d != delta %d", injF, want)
	}
}
