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
// Recording then replaying matters: the simulator's RNG is shared
// between traffic generation and adaptive tie-breaking, so two different
// configurations given the same seed would generate *different*
// workloads. The trace pins the workload; the configurations only differ
// in how they move it.

// DiffResult is the outcome of one differential comparison.
type DiffResult struct {
	Primary  *Result `json:"primary"`
	Baseline *Result `json:"baseline"`
	// Mismatches lists delivery-set disagreements between the runs
	// (empty when the oracle passes).
	Mismatches []string `json:"mismatches,omitempty"`
	// TraceLen is the recorded workload size both runs had to deliver.
	TraceLen int `json:"trace_len"`
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
	// Primary run, recording the workload it generates. The recorder is
	// transparent: this is exactly the run Run(sc) would do.
	s, err := sc.Sim()
	if err != nil {
		return nil, err
	}
	rec := &traffic.Recorder{Gen: s.Network().Config().Traffic}
	s.Network().SetTraffic(rec)
	primary, err := runDelivering(sc, s.Network())
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
	baseline, err := runDelivering(bsc, bs.Network())
	if err != nil {
		return nil, err
	}

	d := &DiffResult{Primary: primary, Baseline: baseline, TraceLen: len(rec.Entries)}
	d.Mismatches = compareDeliveries(primary, baseline, len(rec.Entries))
	return d, nil
}

// runDelivering is the checked, drained run with every delivery
// collected for comparison.
func runDelivering(sc Scenario, net *sim.Network) (*Result, error) {
	var got []Delivery
	net.SetEjectHook(func(p *sim.Packet) {
		got = append(got, Delivery{ID: p.ID, Src: p.Src, Dst: p.Dst, Length: p.Length, VNet: p.VNet})
	})
	res, err := Drive(context.Background(), sc, net, Observe{Check: true, Drain: true})
	if err != nil {
		return nil, err
	}
	res.Delivered = got
	return res, nil
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
