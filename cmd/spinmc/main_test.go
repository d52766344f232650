package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mc"
)

// TestJSONOutputIsOneDocument: under -json stdout holds exactly one JSON
// document, whether or not a property fails, and the human summary goes
// to stderr. The exit status still says whether one failed.
func TestJSONOutputIsOneDocument(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		line   string
	}{
		{[]string{"-topo", "ring5", "-mutate", "spin_unchecked", "-bound", "20", "-json"}, 1, "property violations"},
		{[]string{"-topo", "mesh2x2", "-packets", "2", "-json"}, 0, "no property violations"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Fatalf("spinmc %v exited %d, want %d; stderr:\n%s", tc.args, got, tc.status, stderr.String())
		}
		dec := json.NewDecoder(&stdout)
		var res mc.Result
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("spinmc %v: stdout is not a JSON document: %v", tc.args, err)
		}
		if dec.More() {
			t.Fatalf("spinmc %v: stdout holds more after the JSON document", tc.args)
		}
		if res.Failed() != (tc.status == 1) || !strings.Contains(stderr.String(), tc.line) {
			t.Fatalf("spinmc %v: failed %v, stderr %q, want the line %q there", tc.args, res.Failed(), stderr.String(), tc.line)
		}
	}
}
