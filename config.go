package spin

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Config describes one run: the network, its traffic and how long it runs.
// It is the Go API's value and, field for field, the JSON body of
// /v1/simulate, the unit the correctness harness generates (which calls it
// Scenario) and the run a failure artifact replays. A zero knob takes the
// default Normalized spells out.
type Config struct {
	// Topology is a spec of one of the Topologies families, in the form
	// its Usage spells ("mesh:8x8", "dragonfly:2,4,2,9", "dragonfly1024").
	Topology string `json:"topology"`
	// Routing names one of the Routings that runs ("" is min_adaptive), at
	// no fewer VCs per vnet than its MinVCs. A scheme that forces a routing
	// overrides it (RoutingOf).
	Routing string `json:"routing"`
	// Scheme names one of the Schemes ("" is none).
	Scheme string `json:"scheme,omitempty"`
	// Traffic: a synthetic pattern name ("uniform_random",
	// "bit_complement", "transpose", "tornado", "neighbor", "bit_reverse",
	// "bit_rotation", "shuffle"), or "" for an exact workload (Injections,
	// TraceB64) or manual injection.
	Traffic string `json:"traffic"`
	// Rate is offered load in flits/terminal/cycle.
	Rate float64 `json:"rate"`
	// DataFrac is the long-packet fraction (default 0.5 of packets are
	// 5-flit data, the rest 1-flit control, as in the paper).
	DataFrac float64 `json:"data_frac,omitempty"`

	VNets      int `json:"vnets,omitempty"`        // default 1; 2 under a closed-loop workload
	VCsPerVNet int `json:"vcs_per_vnet,omitempty"` // default 1
	VCDepth    int `json:"vc_depth,omitempty"`     // flits per VC, default 5

	Seed int64 `json:"seed"` // the run is deterministic in it
	// TDD is SPIN's (and Static Bubble's) detection threshold (default
	// 128, the paper's value; cleared for a scheme without one).
	TDD int64 `json:"tdd,omitempty"`

	// Cycles is the traffic phase length; DrainCycles bounds the drain
	// that follows. 0 means the default budget, 250x Cycles, wherever a
	// drain is run (harness runs, spinsim -drain); the serving path
	// drains only when the request sets it. New and Reset read neither:
	// the caller steps the Simulation (Run, harness.Drive).
	Cycles      int64 `json:"cycles"`
	DrainCycles int64 `json:"drain_cycles,omitempty"`

	// Warmup is the cycles before measurement starts. The checker audits
	// raw counters and ignores it.
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
	// disables SPIN's detection/probe phase (the scheme table builds SPIN
	// with DisableProbe), turning every true deadlock into a drain failure.
	Mutation string `json:"mutation,omitempty"`

	// CountTruth has SPIN check every confirmed recovery against the
	// global deadlock oracle (Fig. 9's true/false-positive counters). It
	// changes those two counters only, never the run, so it is not part
	// of the JSON form.
	CountTruth bool `json:"-"`
}

// closedLoop reports whether c carries a closed-loop workload block.
func (c Config) closedLoop() bool { return c.Workload != nil && c.Workload.Mode == "closed" }

// Sim builds the runnable simulation of c: New(c).
func (c Config) Sim() (*Simulation, error) { return New(c) }

// SimShards is Sim; the argument is ignored.
//
// Deprecated: the cycle engine has no shard count. Kept only because
// benchmark/sim.go, frozen for the PR that deleted the sharded engine,
// still calls it (see ROADMAP).
func (c Config) SimShards(int) (*Simulation, error) { return c.Sim() }

// Validate reports whether c is a runnable run description. It checks
// shape errors only; spec-string errors (an unknown topology or routing
// name) and exact-workload entries the built network cannot host surface
// from New when the simulation is built.
func (c Config) Validate() error {
	switch {
	case c.Topology == "":
		return fmt.Errorf("spin: scenario needs a topology")
	case c.Traffic == "" && len(c.Injections) == 0 && c.TraceB64 == "":
		return fmt.Errorf("spin: scenario needs a traffic pattern, injections, or a trace")
	case c.Traffic != "" && len(c.Injections) > 0:
		return fmt.Errorf("spin: traffic %q and explicit injections are mutually exclusive", c.Traffic)
	case c.TraceB64 != "" && (c.Traffic != "" || len(c.Injections) > 0 || c.Workload != nil):
		return fmt.Errorf("spin: trace_b64 is mutually exclusive with traffic, injections, and workload")
	case c.Workload != nil && c.Traffic == "":
		return fmt.Errorf("spin: workload shaping needs a traffic pattern")
	case c.Workload != nil && len(c.Injections) > 0:
		return fmt.Errorf("spin: workload shaping and explicit injections are mutually exclusive")
	case c.Traffic != "" && c.Rate <= 0:
		return fmt.Errorf("spin: rate must be > 0, got %g", c.Rate)
	case c.Traffic == "" && c.Rate != 0:
		return fmt.Errorf("spin: rate %g is meaningless without a traffic pattern", c.Rate)
	case c.Cycles <= 0:
		return fmt.Errorf("spin: cycles must be > 0, got %d", c.Cycles)
	case c.DataFrac < 0 || c.DataFrac > 1:
		return fmt.Errorf("spin: data_frac must be in [0,1], got %g", c.DataFrac)
	case c.VNets < 0 || c.VCsPerVNet < 0 || c.VCDepth < 0:
		return fmt.Errorf("spin: vnets/vcs_per_vnet/vc_depth must be >= 0")
	case max(c.VNets, 1) > sim.MaxVCsPerPort/max(c.VCsPerVNet, 1):
		return fmt.Errorf("spin: at most %d VCs per port (vnets x vcs_per_vnet), got %d x %d", sim.MaxVCsPerPort, c.VNets, c.VCsPerVNet)
	case c.VCDepth > sim.MaxVCDepth:
		return fmt.Errorf("spin: vc_depth must be <= %d, got %d", sim.MaxVCDepth, c.VCDepth)
	case c.TDD < 0:
		return fmt.Errorf("spin: tdd must be >= 0, got %d", c.TDD)
	case c.Warmup < 0:
		return fmt.Errorf("spin: warmup must be >= 0, got %d", c.Warmup)
	case c.Warmup >= c.Cycles:
		return fmt.Errorf("spin: warmup %d leaves no measurement window in %d cycles", c.Warmup, c.Cycles)
	case c.DrainCycles < 0:
		return fmt.Errorf("spin: drain_cycles must be >= 0, got %d", c.DrainCycles)
	}
	switch c.Mutation {
	case "", "none", "no_probe":
	default:
		return fmt.Errorf("spin: unknown mutation %q (want none or no_probe)", c.Mutation)
	}
	if c.Workload != nil {
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("spin: %w", err)
		}
		if c.closedLoop() && c.VNets == 1 {
			return fmt.Errorf("spin: closed-loop workload needs vnets >= 2 (requests and replies ride separate classes), got 1")
		}
	}
	if c.TraceB64 != "" {
		// Full structural validation (magic, chunk CRCs, canonical
		// varints, field bounds) by streaming the trace to its end in
		// constant memory: a repetitive trace decompresses to hundreds of
		// times its upload size. Rejecting a corrupt trace here keeps it
		// out of the content-addressed cache entirely.
		tr, err := c.traceReader()
		if err != nil {
			return err
		}
		defer tr.Close()
		for {
			if _, err := tr.Next(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("spin: trace_b64: %w", err)
			}
		}
	}
	return nil
}

// Normalized fills every zero-valued knob with the default the simulator
// applies, and clears knobs the configuration cannot use, so semantically
// identical configs become structurally identical. It is where the
// defaults are decided: Reset builds from Normalized(), so a normalized
// config simulates bit-identically to its original.
func (c Config) Normalized() Config {
	if c.Routing == "" {
		c.Routing = "min_adaptive" // LookupRouting's "" alias
	}
	if c.Scheme == "none" {
		c.Scheme = "" // LookupScheme treats "none" and "" alike
	}
	c.Traffic = traffic.CanonicalName(c.Traffic) // ByName's aliases, spelled one way
	if c.Workload != nil {
		// Normalize the workload block the same way Build does, and drop
		// a block that is all defaults — it shapes nothing, so the plain
		// synthetic config must hash identically.
		w := *c.Workload
		w.Normalize()
		if w.IsZero() {
			c.Workload = nil
		} else {
			c.Workload = &w
		}
	}
	if c.VNets == 0 && c.closedLoop() {
		c.VNets = 2 // replies ride their own message class
	}
	if c.VNets == 0 {
		c.VNets = 1
	}
	if c.VCsPerVNet == 0 {
		c.VCsPerVNet = 1
	}
	if c.VCDepth == 0 {
		c.VCDepth = 5
	}
	if c.Traffic == "" {
		// Explicit injections or a replayed trace: no synthetic generator
		// exists, so its knobs are cleared instead of defaulted.
		c.Rate, c.DataFrac = 0, 0
	} else if c.closedLoop() {
		// Closed-loop clients fix packet lengths via req_len/resp_len;
		// the open-loop long-packet mix knob is unused.
		c.DataFrac = 0
	} else if c.DataFrac == 0 {
		c.DataFrac = 0.5 // traffic.Synthetic's default long-packet mix
	}
	if c.Mutation == "none" {
		c.Mutation = "" // the faithful protocol, spelled out
	}
	if e := LookupScheme(c.Scheme); e == nil || !e.UsesTDD {
		c.TDD = 0 // no detection timeout exists to configure
	} else if c.TDD == 0 {
		c.TDD = 128 // the paper's detection threshold
	}
	return c
}

// CanonicalJSON is the canonical encoding every request shape shares:
// the JSON of its normalized form. Struct-field order makes the bytes
// deterministic, so the encoding is a stable content-address input.
func CanonicalJSON(normalized any) []byte {
	b, err := json.Marshal(normalized)
	if err != nil {
		// Requests are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("spin: canonical encoding failed: %v", err))
	}
	return b
}

// Canonical returns c's canonical encoding (see CanonicalJSON): two
// configs that describe the same run have the same bytes.
func (c Config) Canonical() []byte { return CanonicalJSON(c.Normalized()) }

// Key is a short stable content hash of c as spelled, used for artifact
// filenames.
func (c Config) Key() string {
	b, _ := json.Marshal(c)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// String is a one-line human-readable summary of the run, defaults
// resolved, stable enough for subtest names.
func (c Config) String() string {
	n := c.Normalized()
	return fmt.Sprintf("%s/%s/%s/%s@%.2f/vn%d-vc%d/seed%d",
		n.Topology, n.Routing, cmp.Or(n.Scheme, "none"), n.Traffic, n.Rate, n.VNets, n.VCsPerVNet, n.Seed)
}

// CheckOptions derives the invariant-checker configuration for a run of c
// on routers routers. The recovery bound is the harness's liveness
// contract: SPIN must clear any oracle-visible deadlock within the time
// for detection (tDD stretched by up to 8x backoff) plus a few probe/move
// round trips around the longest possible loop; schemeless runs are
// generated deadlock-free, so any persistent oracle deadlock at all is a
// bug and the bound is a small constant.
func (c Config) CheckOptions(routers int) sim.CheckOptions {
	if n := c.Normalized(); n.Scheme == "spin" {
		// Detection: priority rotation visits every router within
		// EpochFactor*tDD*routers/... — in practice a few backoff-
		// stretched detection intervals; recovery: probe+move+spin
		// traverse the loop (<= 2*routers hops) a handful of times, and
		// contended recoveries restart after kill_moves. The constant
		// is calibrated against the harness corpus (see
		// TestSpinRecoveryBoundRegression) with ~3x headroom.
		return sim.CheckOptions{RecoveryBound: 40*n.TDD + 30*int64(routers)}
	}
	// No recovery scheme: the routing itself must be deadlock-free, so
	// the oracle may never see a deadlock persist.
	return sim.CheckOptions{RecoveryBound: 256}
}

// traceReader opens TraceB64 for streaming; the magic is checked here,
// everything after it as the entries are read.
func (c Config) traceReader() (*traffic.TraceReader, error) {
	raw, err := base64.StdEncoding.DecodeString(c.TraceB64)
	if err != nil {
		return nil, fmt.Errorf("spin: trace_b64 is not valid base64: %w", err)
	}
	tr, err := traffic.StreamTrace(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("spin: trace_b64: %w", err)
	}
	return tr, nil
}

// source builds the traffic source of a run of the normalized config c on
// a network of config nc: the exact workload (Injections or TraceB64, one
// replay engine over either entry source), else the synthetic pattern,
// shaped by the workload block when there is one, else none (manual
// injection). Reset, its one caller, is the one place a config becomes a
// traffic source.
func (c Config) source(nc sim.Config) (sim.TrafficGen, error) {
	switch {
	case len(c.Injections) > 0:
		return traffic.NewStreamReplay(traffic.SliceSource(c.Injections), nc)
	case c.TraceB64 != "":
		tr, err := c.traceReader()
		if err != nil {
			return nil, err
		}
		return traffic.NewStreamReplay(tr, nc)
	case c.Traffic == "":
		return nil, nil
	}
	pat, err := traffic.ByName(c.Traffic, nc.Topology)
	if err != nil {
		return nil, err
	}
	if c.Workload != nil {
		return workload.Build(*c.Workload, pat, c.Rate, c.DataFrac, nc.VNets, nc.Topology.NumTerminals(), c.Seed)
	}
	return &traffic.Synthetic{Pattern: pat, Rate: c.Rate, DataFrac: c.DataFrac, VNets: nc.VNets}, nil
}
