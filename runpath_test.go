package spin_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneRunDriver pins the run-path contract: outside the simulator
// itself (internal/sim), this facade (spin.go), the examples and tests,
// observers are registered, event rings built and networks drained in
// exactly one place — harness.Drive — and spind reaches its worker pool
// through one helper; the one exception is the -trace ring spinsim sizes
// from -tracebuf and hands to Drive. A second call site means an entry
// point is assembling its own run again, which is how the
// attach/drain/err-check copies drifted before.
func TestOneRunDriver(t *testing.T) {
	driver := filepath.Join("internal", "harness", "run.go")
	want := map[string][]string{
		".AttachChecker(": {driver}, ".AttachTelemetry(": {driver}, ".AttachFlightRecorder(": {driver},
		".AddObserver(": {driver}, ".Drain(": {driver},
		"NewEventRing(":  {filepath.Join("cmd", "spinsim", "main.go"), driver},
		"s.pool.Submit(": {filepath.Join("internal", "serve", "server.go")},
	}
	got := map[string][]string{}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == filepath.Join("internal", "sim") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "//") {
					continue
				}
				for call := range want {
					if strings.Contains(line, call) {
						got[call] = append(got[call], path)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for call, sites := range want {
		if strings.Join(got[call], ",") != strings.Join(sites, ",") {
			t.Errorf("%s called from %v, want only %v", call, got[call], sites)
		}
	}
}
