package harness

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// The differential oracle: run the scenario as configured (typically
// SPIN-enabled adaptive routing) while recording the injected workload,
// then replay the *identical* trace into the Duato escape-VC baseline,
// which is deadlock-free by construction. Both executions must drain and
// deliver exactly the recorded packet set, packet for packet.
//
// Every terminal draws on a stream of its own (sim/rng.go) that no routing
// or scheme touches, so an open-loop source generates the same packets —
// cycle, terminal, destination, length, vnet — under both configurations
// given the same seed. The recording still pins what that does not cover:
// a closed-loop client issues requests as its replies arrive, so its
// workload follows how the primary moved it; and the baseline injects the
// primary's packets themselves, so the comparison does not rest on the
// argument above. The configurations differ only in how they move them.

// DiffResult is the outcome of one differential comparison.
type DiffResult struct {
	Primary  *Result `json:"primary"`
	Baseline *Result `json:"baseline"`
	// Mismatches lists delivery-set disagreements between the runs
	// (empty when the oracle passes).
	Mismatches []string `json:"mismatches,omitempty"`
	// TraceLen is the recorded workload size both runs had to deliver.
	TraceLen int `json:"trace_len"`
	// PrimaryRate and BaselineRate are how fast each run delivered it:
	// reported, not judged (the delivery sets above are the verdict).
	PrimaryRate  Rate `json:"primary_rate"`
	BaselineRate Rate `json:"baseline_rate"`
}

// Rate is how fast a run delivered: the flits it ejected in its
// measurement window, the same per terminal per measured cycle, and the
// cycle its drain completed (0 if it did not).
type Rate struct {
	Flits     int64   `json:"flits"`
	PerNode   float64 `json:"flits_per_node_cycle"`
	DrainedAt int64   `json:"drained_at"`
}

// Failed reports whether either run violated invariants or the delivery
// sets disagree.
func (d *DiffResult) Failed() bool {
	return d.Primary.Failed() || d.Baseline.Failed() || len(d.Mismatches) > 0
}

// Summary is a one-line verdict.
func (d *DiffResult) Summary() string {
	if !d.Failed() {
		return fmt.Sprintf("ok: both configurations delivered the same %d packets", d.TraceLen)
	}
	switch {
	case len(d.Mismatches) > 0:
		return "delivery sets differ: " + d.Mismatches[0]
	case d.Primary.Failed():
		return "primary: " + d.Primary.Summary()
	default:
		return "baseline: " + d.Baseline.Summary()
	}
}

// RunDifferential executes the scenario's differential oracle. The
// scenario must be DifferentialEligible (an escape-VC baseline exists
// for its topology).
func RunDifferential(sc Scenario) (*DiffResult, error) {
	if !DifferentialEligible(sc) {
		return nil, fmt.Errorf("harness: no escape-VC baseline for topology %q", sc.Topology)
	}
	// Primary run, recording the workload it generates. The recorder only
	// observes: this is exactly the run Run(sc) would do.
	s, err := sc.Sim()
	if err != nil {
		return nil, err
	}
	rec := &traffic.Recorder{}
	s.Network().AddObserver(sim.MaskOf(sim.EvPacketQueued), rec)
	primary, primaryRate, err := runDelivering(sc, s.Network())
	if err != nil {
		return nil, err
	}

	// Baseline run: same topology/seed, escape-VC routing, no scheme,
	// with the recording as its exact workload instead of a generator —
	// built by Sim like any other injections scenario.
	bsc := Baseline(sc)
	bsc.Traffic, bsc.Rate, bsc.Workload, bsc.Injections = "", 0, nil, rec.Entries
	bs, err := bsc.Sim()
	if err != nil {
		return nil, err
	}
	baseline, baselineRate, err := runDelivering(bsc, bs.Network())
	if err != nil {
		return nil, err
	}

	d := &DiffResult{Primary: primary, Baseline: baseline, TraceLen: len(rec.Entries),
		PrimaryRate: primaryRate, BaselineRate: baselineRate}
	d.Mismatches = compareDeliveries(primary, baseline, len(rec.Entries))
	return d, nil
}

// runDelivering is the checked, drained run with every delivery
// collected for comparison, and how fast it delivered.
func runDelivering(sc Scenario, net *sim.Network) (*Result, Rate, error) {
	var got []Delivery
	net.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
		got = append(got, Delivery{ID: e.Packet, Src: e.Src, Dst: e.Dst, Length: e.Len, VNet: e.VNet})
	}))
	res, err := Drive(context.Background(), sc, net, Observe{Check: true, Drain: true})
	if err != nil {
		return nil, Rate{}, err
	}
	res.Delivered = got
	r := Rate{Flits: res.Stats.EjectedFlitsMeas}
	if cycles := res.Stats.MeasuredCycles; cycles > 0 {
		r.PerNode = float64(r.Flits) / float64(cycles) / float64(net.Topology().NumTerminals())
	}
	if res.Drained {
		r.DrainedAt = net.Now()
	}
	return res, r, nil
}

// compareDeliveries checks that both runs delivered the full recorded
// workload with identical per-packet tuples. Packet IDs are assigned in
// injection order and both runs inject the trace entries in the same
// order, so tuples are compared ID by ID.
func compareDeliveries(a, b *Result, want int) []string {
	var ms []string
	add := func(format string, args ...any) {
		if len(ms) < 8 {
			ms = append(ms, fmt.Sprintf(format, args...))
		}
	}
	if len(a.Delivered) != want {
		add("primary delivered %d of %d recorded packets", len(a.Delivered), want)
	}
	if len(b.Delivered) != want {
		add("baseline delivered %d of %d recorded packets", len(b.Delivered), want)
	}
	byID := func(ds []Delivery) map[uint64]Delivery {
		m := make(map[uint64]Delivery, len(ds))
		for _, d := range ds {
			m[d.ID] = d
		}
		return m
	}
	am, bm := byID(a.Delivered), byID(b.Delivered)
	for id, ad := range am {
		bd, ok := bm[id]
		if !ok {
			add("packet %d delivered by primary only (src %d dst %d)", id, ad.Src, ad.Dst)
			continue
		}
		if ad != bd {
			add("packet %d differs: primary %+v baseline %+v", id, ad, bd)
		}
	}
	for id, bd := range bm {
		if _, ok := am[id]; !ok {
			add("packet %d delivered by baseline only (src %d dst %d)", id, bd.Src, bd.Dst)
		}
	}
	return ms
}
