package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the request ⇄ Scenario round-trip used by the serving
// subsystem (internal/serve, cmd/spind): a scenario arriving as JSON is
// decoded strictly, validated, normalized into a canonical form, and
// re-encoded into canonical bytes. Two requests that describe the same
// simulation — whether they spell defaults out or omit them — produce
// identical canonical bytes, and therefore the same content-addressed
// cache key.

// DecodeStrict reads exactly one JSON document of type T, the way every
// request body is read: unknown fields are rejected, so a typoed knob
// ("vc_per_vnet") fails loudly instead of silently simulating something
// else, and so is anything but whitespace after the document — a second
// document in the body is almost certainly a client bug.
func DecodeStrict[T any](r io.Reader) (T, error) {
	var v, zero T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return zero, err
	}
	if dec.More() {
		return zero, fmt.Errorf("trailing data after the JSON document")
	}
	return v, nil
}

// CanonicalJSON is the canonical encoding every request shape shares:
// the JSON of its normalized form. Struct-field order makes the bytes
// deterministic, so the encoding is a stable content-address input.
func CanonicalJSON(normalized any) []byte {
	b, err := json.Marshal(normalized)
	if err != nil {
		// Requests are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("harness: canonical encoding failed: %v", err))
	}
	return b
}

// TelemetryEpoch resolves a request's time-series window: there is none
// without telemetry, and with it 0 means 100 cycles.
func TelemetryEpoch(telemetry bool, epoch int64) int64 {
	switch {
	case !telemetry:
		return 0
	case epoch == 0:
		return 100
	}
	return epoch
}

// DecodeScenario reads one scenario from JSON (see DecodeStrict).
func DecodeScenario(r io.Reader) (Scenario, error) {
	sc, err := DecodeStrict[Scenario](r)
	if err != nil {
		return sc, fmt.Errorf("harness: decode scenario: %w", err)
	}
	return sc, nil
}

// Validate reports whether the scenario is a runnable request. It checks
// request-shape errors only; spec-string errors (an unknown topology or
// routing name) and exact-workload entries the built network cannot
// host surface from Sim when the simulation is built.
func (sc Scenario) Validate() error {
	switch {
	case sc.Topology == "":
		return fmt.Errorf("harness: scenario needs a topology")
	case sc.Traffic == "" && len(sc.Injections) == 0 && sc.TraceB64 == "":
		return fmt.Errorf("harness: scenario needs a traffic pattern, injections, or a trace")
	case sc.Traffic != "" && len(sc.Injections) > 0:
		return fmt.Errorf("harness: traffic %q and explicit injections are mutually exclusive", sc.Traffic)
	case sc.TraceB64 != "" && (sc.Traffic != "" || len(sc.Injections) > 0 || sc.Workload != nil):
		return fmt.Errorf("harness: trace_b64 is mutually exclusive with traffic, injections, and workload")
	case sc.Workload != nil && sc.Traffic == "":
		return fmt.Errorf("harness: workload shaping needs a traffic pattern")
	case sc.Workload != nil && len(sc.Injections) > 0:
		return fmt.Errorf("harness: workload shaping and explicit injections are mutually exclusive")
	case sc.Traffic != "" && sc.Rate <= 0:
		return fmt.Errorf("harness: rate must be > 0, got %g", sc.Rate)
	case sc.Traffic == "" && sc.Rate != 0:
		return fmt.Errorf("harness: rate %g is meaningless without a traffic pattern", sc.Rate)
	case sc.Cycles <= 0:
		return fmt.Errorf("harness: cycles must be > 0, got %d", sc.Cycles)
	case sc.DataFrac < 0 || sc.DataFrac > 1:
		return fmt.Errorf("harness: data_frac must be in [0,1], got %g", sc.DataFrac)
	case sc.VNets < 0 || sc.VCsPerVNet < 0 || sc.VCDepth < 0:
		return fmt.Errorf("harness: vnets/vcs_per_vnet/vc_depth must be >= 0")
	case sc.TDD < 0:
		return fmt.Errorf("harness: tdd must be >= 0, got %d", sc.TDD)
	case sc.Warmup < 0:
		return fmt.Errorf("harness: warmup must be >= 0, got %d", sc.Warmup)
	case sc.Warmup >= sc.Cycles:
		return fmt.Errorf("harness: warmup %d leaves no measurement window in %d cycles", sc.Warmup, sc.Cycles)
	case sc.DrainCycles < 0:
		return fmt.Errorf("harness: drain_cycles must be >= 0, got %d", sc.DrainCycles)
	}
	switch sc.Mutation {
	case "", "none", "no_probe":
	default:
		return fmt.Errorf("harness: unknown mutation %q (want none or no_probe)", sc.Mutation)
	}
	if sc.Workload != nil {
		if err := sc.Workload.Validate(); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
		if sc.Workload.Mode == "closed" && sc.VNets == 1 {
			return fmt.Errorf("harness: closed-loop workload needs vnets >= 2 (requests and replies ride separate classes), got 1")
		}
	}
	if sc.TraceB64 != "" {
		// Full structural validation (magic, chunk CRCs, canonical
		// varints, field bounds) by streaming the trace to its end in
		// constant memory: a repetitive trace decompresses to hundreds of
		// times its upload size. Rejecting a corrupt trace here keeps it
		// out of the content-addressed cache entirely.
		tr, err := sc.traceReader()
		if err != nil {
			return err
		}
		defer tr.Close()
		for {
			if _, err := tr.Next(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("harness: trace_b64: %w", err)
			}
		}
	}
	return nil
}

// Normalized fills every zero-valued knob with the default the simulator
// would apply anyway, and clears knobs the configuration cannot use, so
// semantically identical scenarios become structurally identical. The
// rules mirror spin.New / sim.NewNetwork / traffic.Synthetic defaulting
// exactly; a normalized scenario simulates bit-identically to its
// original.
func (sc Scenario) Normalized() Scenario {
	if sc.Routing == "" {
		sc.Routing = "min_adaptive" // spin.BuildRouting's "" alias
	}
	if sc.Scheme == "none" {
		sc.Scheme = "" // spin.New treats "none" and "" alike
	}
	if sc.Workload != nil {
		// Normalize the workload block the same way Build does, and drop
		// a block that is all defaults — it shapes nothing, so the plain
		// synthetic scenario must hash identically.
		w := *sc.Workload
		w.Normalize()
		if w.IsZero() {
			sc.Workload = nil
		} else {
			sc.Workload = &w
		}
	}
	if sc.closedLoop() && sc.VNets == 0 {
		sc.VNets = 2 // reply class; mirrors Scenario.Config
	}
	if sc.VNets == 0 {
		sc.VNets = 1
	}
	if sc.VCsPerVNet == 0 {
		sc.VCsPerVNet = 1
	}
	if sc.VCDepth == 0 {
		sc.VCDepth = 5
	}
	if sc.Traffic == "" {
		// Explicit injections or a replayed trace: no synthetic generator
		// exists, so its knobs are cleared instead of defaulted.
		sc.Rate, sc.DataFrac = 0, 0
	} else if sc.closedLoop() {
		// Closed-loop clients fix packet lengths via req_len/resp_len;
		// the open-loop long-packet mix knob is unused.
		sc.DataFrac = 0
	} else if sc.DataFrac == 0 {
		sc.DataFrac = 0.5 // traffic.Synthetic's default long-packet mix
	}
	if sc.Mutation == "none" {
		sc.Mutation = "" // the faithful protocol, spelled out
	}
	switch sc.Scheme {
	case "spin", "static_bubble":
		if sc.TDD == 0 {
			sc.TDD = 128 // the paper's detection threshold
		}
	default:
		sc.TDD = 0 // no detection timeout exists to configure
	}
	return sc
}

// Canonical returns the scenario's canonical encoding (see
// CanonicalJSON).
func (sc Scenario) Canonical() []byte { return CanonicalJSON(sc.Normalized()) }

// CanonicalEqual reports whether two scenarios describe the same
// simulation.
func CanonicalEqual(a, b Scenario) bool {
	return bytes.Equal(a.Canonical(), b.Canonical())
}
