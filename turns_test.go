package spin

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTrafficResumesAfterDrain pins runs that drain mid-way and then carry
// on generating, through the public API: the digests are those of the
// engine that called every terminal on every cycle, so a source's turns —
// the ones it settled ahead into the drain included — must come back to
// where that engine would have drawn them. Each digest covers the run's
// statistics and every packet queued and ejected, in order.
func TestTrafficResumesAfterDrain(t *testing.T) {
	base := Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 3,
		Traffic: "uniform_random", Rate: 0.1, Seed: 11, Warmup: 300}
	for _, tc := range []struct {
		name  string
		shape func(*Config)
		want  string
	}{
		{"synthetic", func(*Config) {}, "4cc3c1c214b757b8"},
		{"burst", func(c *Config) { c.Workload = &workload.Spec{BurstOn: 30, BurstOff: 90} }, "101612a8ee5efe56"},
		{"closed_loop", func(c *Config) { c.Workload = &workload.Spec{Mode: "closed", Window: 2, Think: 40} }, "421c9b9b69891e32"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.shape(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			s.Network().AddObserver(sim.MaskOf(sim.EvPacketQueued, sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
				fmt.Fprintf(h, "%+v\n", e)
			}))
			s.Run(1200)
			if !s.Drain(100000) {
				t.Fatal("the network did not drain")
			}
			s.Run(1200)
			fmt.Fprintf(h, "%+v\n", *s.Stats())
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Errorf("digest %s, want %s (stats %+v)", got, tc.want, *s.Stats())
			}
		})
	}
}
