package spin_test

import (
	"strings"
	"testing"

	spin "repro"
	"repro/internal/sim"
	spinimpl "repro/internal/spin"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSerialOnlyClamping pins which configurations may actually shard:
// schemes and traffic generators must positively declare shard-safety
// (sim.SerialOnly), so anything with cross-router step-time scans — the
// ring-bubble free-slot check, SPIN's oracle-backed CountTruth
// accounting — or global injection-order state — trace record/replay —
// silently clamps to the serial engine, while the plain sharded-safe
// configuration keeps its requested shard count.
func TestSerialOnlyClamping(t *testing.T) {
	cases := []struct {
		name       string
		cfg        spin.Config
		wantShards int
	}{
		{
			name: "spin scheme shards freely",
			cfg: spin.Config{
				Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
				Traffic: "uniform_random", Rate: 0.1, Shards: 4,
			},
			wantShards: 4, // positive control: the clamp is real, not a default
		},
		{
			name: "count_truth forces serial",
			cfg: spin.Config{
				Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
				SPIN:    spinimpl.Config{CountTruth: true},
				Traffic: "uniform_random", Rate: 0.1, Shards: 4,
			},
			wantShards: 1,
		},
		{
			name: "ring bubble forces serial",
			cfg: spin.Config{
				Topology: "torus:4x4", Routing: "xy", Scheme: "ring_bubble",
				Traffic: "uniform_random", Rate: 0.1, Shards: 4,
			},
			wantShards: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := spin.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Network().Shards(); got != tc.wantShards {
				t.Errorf("Shards() = %d, want %d", got, tc.wantShards)
			}
		})
	}
}

// emptyReplay is the replay engine over an empty workload on topo.
func emptyReplay(t *testing.T, topo topology.Topology) *traffic.StreamReplay {
	t.Helper()
	rp, err := traffic.NewStreamReplay(traffic.SliceSource(nil), sim.Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// TestTraceTrafficShardPolicy: traffic.Recorder captures the global
// injection order, which is inherently serial, so it clamps to one
// shard. The replay engine (traffic.StreamReplay) dispatches each entry
// to its source terminal's queue, a shard-local affair, so replay
// declares shard-safety and keeps the requested count.
func TestTraceTrafficShardPolicy(t *testing.T) {
	topo, err := spin.BuildTopology("mesh:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := spin.BuildRouting("min_adaptive", topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := &traffic.Synthetic{Pattern: traffic.Uniform(topo.NumTerminals()), Rate: 0.1}
	cases := []struct {
		name       string
		gen        sim.TrafficGen
		wantShards int
	}{
		{"replay", emptyReplay(t, topo), 4},
		{"recorder", &traffic.Recorder{Gen: base}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := sim.NewNetwork(sim.Config{
				Topology: topo, Routing: routing, Traffic: tc.gen, Shards: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := net.Shards(); got != tc.wantShards {
				t.Errorf("Shards() = %d, want %d", got, tc.wantShards)
			}
		})
	}
}

// TestSetTrafficPanicsOnShardedNetwork: attaching a serial-only
// generator after construction cannot silently re-serialize a network
// already running sharded — it must refuse loudly.
func TestSetTrafficPanicsOnShardedNetwork(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "uniform_random", Rate: 0.1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network().Shards() != 4 {
		t.Fatalf("control network did not shard: %d", s.Network().Shards())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetTraffic accepted a serial-only generator on a sharded network")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "serial") {
			t.Errorf("panic message does not explain the serial requirement: %v", r)
		}
	}()
	s.Network().SetTraffic(&traffic.Recorder{Gen: &traffic.Synthetic{
		Pattern: traffic.Uniform(16), Rate: 0.1,
	}})
}

// TestReplaySetTrafficAllowedSharded is the flip side: a shard-safe
// replay generator attaches to a sharded network without complaint.
func TestReplaySetTrafficAllowedSharded(t *testing.T) {
	s, err := spin.New(spin.Config{
		Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin",
		Traffic: "uniform_random", Rate: 0.1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network().Shards() != 4 {
		t.Fatalf("control network did not shard: %d", s.Network().Shards())
	}
	s.Network().SetTraffic(emptyReplay(t, s.Topology()))
}
