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
// the checker, telemetry and event rings are attached and networks drained
// in exactly one place — harness.Drive — and spind reaches its worker pool
// through one helper; the one exception is the -trace ring spinsim sizes
// from -tracebuf and hands to Drive. Observers are added by Drive and by
// the two recorders that hand Drive an already-watched network (the
// differential oracle, which also collects deliveries, and spinsim
// -record). A second call site means an entry point is assembling its own
// run again, which is how the attach/drain/err-check copies drifted before.
//
// The same goes for the workload: outside internal/traffic the replay
// engine is built only where a Config becomes a traffic source (config.go,
// for Reset), and a network's generator is swapped only by Reset and
// Fig. 8's PARSEC generator.
func TestOneRunDriver(t *testing.T) {
	driver := filepath.Join("internal", "harness", "run.go")
	diff := filepath.Join("internal", "harness", "diff.go")
	config := "config.go"
	spinsim := filepath.Join("cmd", "spinsim", "main.go")
	want := map[string][]string{
		".AttachChecker(": {driver}, ".AttachTelemetry(": {driver}, ".AttachFlightRecorder(": {driver},
		".AddObserver(": {spinsim, diff, diff, driver}, ".DrainContext(": {driver}, ".Drain(": nil,
		"NewEventRing(":    {spinsim, driver},
		"s.pool.Submit(":   {filepath.Join("internal", "serve", "server.go")},
		"NewStreamReplay(": {config, config},
		".SetTraffic(":     {filepath.Join("internal", "exp", "fig8.go")},
	}
	got := map[string][]string{}
	for _, root := range []string{".", "cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (path == filepath.Join("internal", "sim") || path == filepath.Join("internal", "traffic") || root == "." && path != ".") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "spin.go" {
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
