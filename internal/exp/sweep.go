package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	spin "repro"
	"repro/internal/harness"
)

// This file is the canonical sweep surface shared by cmd/spinsweep and
// the serving subsystem (internal/serve): a figure sweep is named by a
// serializable Options, dispatched through Sweep, and encoded with
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

// SweepRequest is Options.
//
// Deprecated: one type describes a sweep. Kept only because
// benchmark/sweep.go, frozen with the benchmark, still names it.
type SweepRequest = Options

// Options returns its receiver.
//
// Deprecated: a request already is the sweep's options. Kept only because
// benchmark/sweep.go, frozen with the benchmark, still calls it.
func (o Options) Options() Options { return o }

// SweepIDs lists the valid Fig names in canonical presentation order.
func SweepIDs() []string {
	return []string{"3", "6", "7", "8a", "8b", "9", "10", "costs", "torus", "workload"}
}

// Validate reports whether o names a runnable sweep: a known figure, knobs
// that leave every point a measurement window, and no negative worker count
// or time budget.
func (o Options) Validate() error {
	if !slices.Contains(SweepIDs(), o.Fig) {
		return fmt.Errorf("exp: unknown figure %q (valid: %s)", o.Fig, strings.Join(SweepIDs(), ", "))
	}
	return o.validKnobs()
}

// validKnobs is Validate less the figure name, which a preset sweep has
// none of.
func (o Options) validKnobs() error {
	n := o.Normalized()
	switch {
	case o.Cycles < 0:
		return fmt.Errorf("exp: cycles must be >= 0, got %d", o.Cycles)
	case o.Epoch < 0:
		return fmt.Errorf("exp: epoch must be >= 0, got %d", o.Epoch)
	case o.Workers < 0:
		return fmt.Errorf("exp: workers must be >= 0, got %d", o.Workers)
	case o.Timeout < 0:
		return fmt.Errorf("exp: timeout must be >= 0, got %v", o.Timeout)
	case n.Warmup >= n.Cycles:
		return fmt.Errorf("exp: warmup %d leaves no measurement window in %d cycles", n.Warmup, n.Cycles)
	}
	return nil
}

// Normalized resolves every defaulted knob to its explicit value, so
// semantically identical requests share one canonical encoding (and
// therefore one cache key), and every sweep runs what its key names: zero
// cycles means 20000, zero warmup means a tenth of the resolved cycles,
// and any negative warmup collapses to -1 ("no warmup").
func (o Options) Normalized() Options {
	if o.Cycles == 0 {
		o.Cycles = 20000
	}
	switch {
	case o.Warmup < 0:
		o.Warmup = -1
	case o.Warmup == 0:
		o.Warmup = o.Cycles / 10
	}
	o.Epoch = harness.TelemetryEpoch(o.Telemetry, o.Epoch)
	switch o.Fig {
	case "3", "10", "costs":
		// No checker ever runs for these, so a "checked" key must not
		// name a result distinct from the unchecked one.
		o.Check = false
	}
	return o
}

// Canonical returns the request's canonical bytes: the JSON of its
// normalized form, the content-address input for the result cache.
func (o Options) Canonical() []byte { return spin.CanonicalJSON(o.Normalized()) }

// DecodeSweepRequest reads one request from JSON, rejecting unknown
// fields (the execution knobs among them) and trailing data (see
// harness.DecodeStrict).
func DecodeSweepRequest(rd io.Reader) (Options, error) {
	r, err := harness.DecodeStrict[Options](rd)
	if err != nil {
		return r, fmt.Errorf("exp: decode sweep request: %w", err)
	}
	return r, nil
}

// Sweep dispatches one figure sweep. The result is Figures for the
// latency curves (Fig. 6/7) and a *Table for every other id; both print
// with String and encode with EncodeJSON.
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
