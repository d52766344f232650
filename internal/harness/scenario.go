// Package harness is the randomized-scenario correctness subsystem: it
// generates random valid simulator configurations, runs each one with
// the sim.InvariantChecker attached, cross-checks SPIN-enabled runs
// against the escape-VC baseline on an identical recorded workload (the
// differential oracle), and writes a replayable JSON artifact for every
// violation so failures reproduce deterministically.
//
// The entry points are Generate (random valid Scenario), Drive (the one
// run driver every entry point in the repository steps a built network
// through), Run (one checked, drained execution on it), RunDifferential
// (SPIN vs escape-VC on the same trace), and FuzzScenario in
// fuzz_test.go (the native go test -fuzz driver over the same
// machinery).
package harness

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"

	spin "repro"
	spinimpl "repro/internal/spin"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Scenario is a compact, serializable simulator configuration — the unit
// the harness generates, runs, and writes into failure artifacts. Fields
// mirror the top-level spin.Config spec strings so a scenario can be
// reproduced with cmd/spinsim flags verbatim.
type Scenario struct {
	// Topology, Routing, Scheme, Traffic are spin.Config spec strings
	// ("mesh:4x4", "min_adaptive", "spin", "tornado", ...).
	Topology string `json:"topology"`
	Routing  string `json:"routing"`
	Scheme   string `json:"scheme,omitempty"`
	Traffic  string `json:"traffic"`

	Rate     float64 `json:"rate"`
	DataFrac float64 `json:"data_frac,omitempty"`

	VNets      int `json:"vnets,omitempty"`
	VCsPerVNet int `json:"vcs_per_vnet,omitempty"`
	VCDepth    int `json:"vc_depth,omitempty"`

	Seed int64 `json:"seed"`
	TDD  int64 `json:"tdd,omitempty"`

	// Cycles is the traffic phase length; DrainCycles bounds the drain
	// that follows. 0 means the default budget, 250x Cycles, wherever a
	// drain is run (harness runs, spinsim -drain); the serving path
	// drains only when the request sets it.
	Cycles      int64 `json:"cycles"`
	DrainCycles int64 `json:"drain_cycles,omitempty"`

	// Warmup delays measurement start (spin.Config.Warmup). The checker
	// audits raw counters and ignores it; it exists for serving paths
	// (cmd/spind) where measurement windows matter.
	Warmup int64 `json:"warmup,omitempty"`

	// Injections, when non-empty, replaces the synthetic generator with
	// an exact packet-by-packet workload. Traffic must be empty and Rate
	// zero; the model checker's counterexample replays (internal/mc,
	// cmd/spinmc) and the differential oracle's baseline run are built on
	// this. A list that is not time-ordered keeps each source's listed
	// order (see traffic.SliceSource).
	Injections []traffic.TraceEntry `json:"injections,omitempty"`

	// Workload shapes the synthetic traffic beyond the plain Bernoulli
	// source: closed-loop finite-window clients, on/off bursts, hotspot
	// skew (see internal/workload.Spec). Requires Traffic; mutually
	// exclusive with Injections and TraceB64.
	Workload *workload.Spec `json:"workload,omitempty"`

	// TraceB64 carries a spintrace-v1 binary trace (base64, standard
	// encoding): an exact workload like Injections, in its streamed form.
	// The bytes are part of the canonical encoding, so the service cache
	// key is content-addressed over the trace itself. Mutually exclusive
	// with Traffic, Injections, and Workload; Rate must be zero.
	TraceB64 string `json:"trace_b64,omitempty"`
	// Mutation injects a deliberate protocol defect for counterexample
	// replay: "" (or "none") is the faithful protocol, "no_probe"
	// disables SPIN's detection/probe phase (spin.Config.SPIN.
	// DisableProbe), turning every true deadlock into a drain failure.
	Mutation string `json:"mutation,omitempty"`
}

// closedLoop reports whether the scenario carries a closed-loop
// workload block.
func (sc Scenario) closedLoop() bool {
	return sc.Workload != nil && sc.Workload.Mode == "closed"
}

// Config translates the scenario into a top-level simulation config.
func (sc Scenario) Config() spin.Config {
	var impl spinimpl.Config
	if sc.Mutation == "no_probe" {
		impl.DisableProbe = true
	}
	if sc.closedLoop() && sc.VNets == 0 {
		// Closed-loop traffic needs a second vnet for the reply class;
		// Normalized applies the same default so canonical scenarios
		// simulate identically to shorthand ones.
		sc.VNets = 2
	}
	return spin.Config{
		SPIN:       impl,
		Topology:   sc.Topology,
		Routing:    sc.Routing,
		Scheme:     sc.Scheme,
		Traffic:    sc.Traffic,
		Rate:       sc.Rate,
		DataFrac:   sc.DataFrac,
		VNets:      sc.VNets,
		VCsPerVNet: sc.VCsPerVNet,
		VCDepth:    sc.VCDepth,
		Seed:       sc.Seed,
		TDD:        sc.TDD,
		Warmup:     sc.Warmup,
	}
}

// FromConfig lifts a top-level simulation config into a Scenario, so
// command-line runs (spinsim -check) share the harness's checker
// configuration and replay-artifact format. Warmup is dropped: it only
// gates measurement windows, never the raw counters the checker audits.
func FromConfig(cfg spin.Config, cycles int64) Scenario {
	return Scenario{
		Topology:   cfg.Topology,
		Routing:    cfg.Routing,
		Scheme:     cfg.Scheme,
		Traffic:    cfg.Traffic,
		Rate:       cfg.Rate,
		DataFrac:   cfg.DataFrac,
		VNets:      cfg.VNets,
		VCsPerVNet: cfg.VCsPerVNet,
		VCDepth:    cfg.VCDepth,
		Seed:       cfg.Seed,
		TDD:        cfg.TDD,
		Cycles:     cycles,
	}
}

// SimShards is Sim; the argument is ignored.
//
// Deprecated: the cycle engine has no shard count. Kept only because
// benchmark/sim.go, frozen for the PR that deleted the sharded engine,
// still calls it (see ROADMAP).
func (sc Scenario) SimShards(int) (*spin.Simulation, error) { return sc.Sim() }

// Sim builds the runnable simulation for the scenario: SimFrom with no pool.
func (sc Scenario) Sim() (*spin.Simulation, error) { return sc.SimFrom(nil) }

// SimFrom rewinds a Simulation taken from p (nil: a new one) to the scenario;
// the caller hands it back with p.Put once its run has completed. It is the
// one place a scenario becomes a traffic source: Reset builds the plain
// synthetic generator, and an exact workload (Injections or TraceB64, one
// replay engine over either entry source) or a workload block replaces it here.
func (sc Scenario) SimFrom(p *spin.Pool) (*spin.Simulation, error) {
	s, err := p.Get(sc.Config())
	if err != nil {
		return nil, err
	}
	net := s.Network()
	var exact traffic.EntrySource
	switch {
	case len(sc.Injections) > 0:
		exact = traffic.SliceSource(sc.Injections)
	case sc.TraceB64 != "":
		if exact, err = sc.traceReader(); err != nil {
			return nil, err
		}
	}
	if exact != nil {
		rp, err := traffic.NewStreamReplay(exact, net.Config())
		if err != nil {
			return nil, err
		}
		net.SetTraffic(rp)
	}
	if sc.Workload != nil {
		w := *sc.Workload
		w.Normalize()
		if !w.IsZero() {
			pat, err := traffic.ByName(sc.Traffic, s.Topology())
			if err != nil {
				return nil, err
			}
			nc := net.Config()
			gen, err := workload.Build(w, pat, sc.Rate, sc.DataFrac, nc.VNets, s.Topology().NumTerminals(), nc.MaxPktLen, sc.Seed)
			if err != nil {
				return nil, err
			}
			net.SetTraffic(gen)
		}
	}
	return s, nil
}

// traceReader opens the scenario's TraceB64 for streaming; the magic is
// checked here, everything after it as the entries are read.
func (sc Scenario) traceReader() (*traffic.TraceReader, error) {
	raw, err := base64.StdEncoding.DecodeString(sc.TraceB64)
	if err != nil {
		return nil, fmt.Errorf("harness: trace_b64 is not valid base64: %w", err)
	}
	tr, err := traffic.StreamTrace(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("harness: trace_b64: %w", err)
	}
	return tr, nil
}

// drainBudget is the post-traffic drain bound, the one rule every
// entry point shares through Drive. The default is generous
// on purpose: a deeply oversaturated 1-VC configuration holds O(rate x
// cycles x terminals) flits in its injection queues and drains them at
// its (recovery-limited) saturation throughput, which can take hundreds
// of cycles per offered cycle. Drain returns the moment the network
// empties, so live runs never pay the full budget.
func (sc Scenario) drainBudget() int64 {
	if sc.DrainCycles > 0 {
		return sc.DrainCycles
	}
	return 250 * sc.Cycles
}

// String is a one-line human-readable summary, stable enough for subtest
// names.
func (sc Scenario) String() string {
	scheme := sc.Scheme
	if scheme == "" {
		scheme = "none"
	}
	return fmt.Sprintf("%s/%s/%s/%s@%.2f/vn%d-vc%d/seed%d",
		sc.Topology, sc.Routing, scheme, sc.Traffic, sc.Rate, sc.VNets, sc.VCsPerVNet, sc.Seed)
}

// Key is a short stable content hash, used for artifact filenames.
func (sc Scenario) Key() string {
	b, _ := json.Marshal(sc)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
