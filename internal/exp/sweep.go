package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	spin "repro"
	"repro/internal/harness"
)

// This file is the canonical sweep surface shared by cmd/spinsweep and
// the serving subsystem (internal/serve): a figure sweep is named by a
// serializable SweepRequest, dispatched through Sweep, and encoded with
// EncodeJSON. Because both entry points call exactly these functions,
// the CLI's -json output and the daemon's /v1/sweep responses are
// byte-identical by construction (TestSweepJSONSchemaGolden pins the
// encoding).

// Figures is a pattern-keyed set of figures, as produced by the
// config × pattern sweeps (Fig6, Fig7). JSON marshalling sorts map keys,
// and String renders in the same sorted-pattern order, so both encodings
// are deterministic.
type Figures map[string]*Figure

// String renders every figure, pattern-sorted.
func (f Figures) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintln(&b, f[k])
	}
	return b.String()
}

// SweepRequest is the serializable description of one figure sweep — the
// unit a client POSTs to /v1/sweep and the shape behind spinsweep's
// flags. Execution knobs (workers, timeouts, progress) are deliberately
// absent: they never change results, so they must never change the
// content address.
type SweepRequest struct {
	// Fig names the sweep: one of SweepIDs().
	Fig string `json:"fig"`
	// Cycles per simulation point (0 = default 20000).
	Cycles int64 `json:"cycles,omitempty"`
	// Warmup cycles before measurement (0 = Cycles/10, negative = none).
	Warmup int64 `json:"warmup,omitempty"`
	// Full selects the paper-scale topologies (8x8 mesh, 1024-node
	// dragonfly); the default uses the scaled-down instances.
	Full bool `json:"full,omitempty"`
	// Seed is the base seed; per-point seeds derive from it and each
	// point's stable key.
	Seed int64 `json:"seed"`
	// Check attaches the runtime invariant checker to every point that
	// steps a network (Fig. 3 deadlocks on purpose and is exempt; Fig. 10
	// and the cost table are analytic).
	Check bool `json:"check,omitempty"`
	// Telemetry adds a latency-percentile summary and an epoch-windowed
	// time-series to every point of the result.
	Telemetry bool `json:"telemetry,omitempty"`
	// Epoch is the time-series window in cycles (0 = default 100; only
	// meaningful with Telemetry).
	Epoch int64 `json:"epoch,omitempty"`
}

// SweepIDs lists the valid Fig names in canonical presentation order.
func SweepIDs() []string {
	return []string{"3", "6", "7", "8a", "8b", "9", "10", "costs", "torus", "deflection", "workload"}
}

// Validate reports whether the request names a runnable sweep.
func (r SweepRequest) Validate() error {
	for _, id := range SweepIDs() {
		if r.Fig == id {
			if r.Cycles < 0 {
				return fmt.Errorf("exp: cycles must be >= 0, got %d", r.Cycles)
			}
			if r.Epoch < 0 {
				return fmt.Errorf("exp: epoch must be >= 0, got %d", r.Epoch)
			}
			return nil
		}
	}
	return fmt.Errorf("exp: unknown figure %q (valid: %s)", r.Fig, strings.Join(SweepIDs(), ", "))
}

// Normalized resolves every defaulted knob to its explicit value, so
// semantically identical requests share one canonical encoding (and
// therefore one cache key). The rules mirror Options.withDefaults: zero
// cycles means 20000, zero warmup means a tenth of the resolved cycles,
// and any negative warmup collapses to -1 ("no warmup").
func (r SweepRequest) Normalized() SweepRequest {
	if r.Cycles == 0 {
		r.Cycles = 20000
	}
	switch {
	case r.Warmup < 0:
		r.Warmup = -1
	case r.Warmup == 0:
		r.Warmup = r.Cycles / 10
	}
	r.Epoch = harness.TelemetryEpoch(r.Telemetry, r.Epoch)
	switch r.Fig {
	case "3", "10", "costs":
		// No checker ever runs for these, so a "checked" key must not
		// name a result distinct from the unchecked one.
		r.Check = false
	}
	return r
}

// Canonical returns the request's canonical bytes: the JSON of its
// normalized form, the content-address input for the result cache.
func (r SweepRequest) Canonical() []byte { return spin.CanonicalJSON(r.Normalized()) }

// Options projects the request's semantic fields into run options; the
// caller layers its execution knobs (Workers, Timeout, Progress) on the
// result.
func (r SweepRequest) Options() Options {
	return Options{Cycles: r.Cycles, Warmup: r.Warmup, Small: !r.Full, Seed: r.Seed,
		Check: r.Check, Telemetry: r.Telemetry, Epoch: r.Epoch}
}

// DecodeSweepRequest reads one request from JSON, rejecting unknown
// fields and trailing data (see harness.DecodeStrict).
func DecodeSweepRequest(rd io.Reader) (SweepRequest, error) {
	r, err := harness.DecodeStrict[SweepRequest](rd)
	if err != nil {
		return r, fmt.Errorf("exp: decode sweep request: %w", err)
	}
	return r, nil
}

// Sweep dispatches one figure sweep. The result is the figure's own
// structured type (every one prints with String and encodes with
// EncodeJSON).
func Sweep(ctx context.Context, fig string, o Options) (interface{}, error) {
	switch fig {
	case "3":
		return Fig3(ctx, o)
	case "6":
		return Fig6(ctx, o)
	case "7":
		return Fig7(ctx, o)
	case "8a":
		return Fig8a(ctx, o)
	case "8b":
		return Fig8b(ctx, o)
	case "9":
		return Fig9(ctx, o)
	case "10":
		return Fig10(), nil
	case "costs":
		return Costs(), nil
	case "torus":
		return Torus(ctx, o)
	case "deflection":
		return Deflection(ctx, o)
	case "workload":
		return WorkloadSweep(ctx, o)
	}
	return nil, fmt.Errorf("exp: unknown figure %q", fig)
}

// EncodeJSON writes the canonical JSON encoding of a sweep result: two-
// space indentation, key-sorted maps (Go's encoder), trailing newline.
// This is the one encoder behind both spinsweep -json and /v1/sweep;
// changing it is a result-schema change and must bump the serving
// result version (internal/serve.ResultVersion).
func EncodeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
