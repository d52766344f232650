package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the request side of the serving subsystem (internal/serve,
// cmd/spind): a scenario arriving as JSON is decoded strictly here, then
// validated, normalized and re-encoded into canonical bytes by spin.Config
// (Validate, Normalized, Canonical). Two requests that describe the same
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

// CanonicalEqual reports whether two scenarios describe the same
// simulation.
func CanonicalEqual(a, b Scenario) bool {
	return bytes.Equal(a.Canonical(), b.Canonical())
}
