package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expectedSet is the schema of expected.json: the outputs the default
// seed must reproduce at full size. Simulated statistics are not
// metrics — a simulator speed-up must leave them identical — so any
// difference is a failed op.
type expectedSet struct {
	Seed int64 `json:"seed"`
	// Digests maps a sim leg to its sim.Stats digest and "sweep_fig7" to
	// the sha256 of the figure's canonical JSON.
	Digests map[string]string `json:"digests"`
	// Counts holds per-pass counts that repeat exactly (exp.points,
	// runner.jobs, spin.*).
	Counts map[string]int64 `json:"counts"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectedSet, error) {
	var e expectedSet
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// checkDigest compares one observed digest against expected.json.
func (c config) checkDigest(o *outcome, want *expectedSet, name, got string) {
	if c.update != nil {
		c.update.Digests[name] = got
		return
	}
	if !c.checkExpected() {
		return
	}
	if w := want.Digests[name]; w != got {
		o.fail(fmt.Sprintf("%s: digest %s, expected.json has %q", name, got, w))
	}
}

// checkCount compares one exact count against expected.json.
func (c config) checkCount(o *outcome, want *expectedSet, name string, got int64) {
	if c.update != nil {
		c.update.Counts[name] = got
		return
	}
	if !c.checkExpected() {
		return
	}
	if w, ok := want.Counts[name]; !ok || w != got {
		o.fail(fmt.Sprintf("%s: count %d, expected.json has %d", name, got, w))
	}
}

// writeExpected merges the collected entries over the file at path (one
// run covers one workload) and rewrites it.
func writeExpected(path string, got *expectedSet) error {
	e := expectedSet{Seed: 1, Digests: map[string]string{}, Counts: map[string]int64{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range got.Digests {
		e.Digests[k] = v
	}
	for k, v := range got.Counts {
		e.Counts[k] = v
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
