package spin

import (
	"bytes"
	"encoding/base64"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// TestSourcesRunAsBuilt: every traffic source Config.source builds runs as
// built — Generate straight after construction, with no call before it that
// sizes it to the network or advances it — and its first cycle emits
// what the same source emits inside a network.
func TestSourcesRunAsBuilt(t *testing.T) {
	entries := []traffic.TraceEntry{
		{Cycle: 0, Src: 0, Dst: 5, Length: 5}, {Cycle: 0, Src: 3, Dst: 12, Length: 1, VNet: 2},
		{Cycle: 0, Src: 3, Dst: 1, Length: 1, VNet: 1}, {Cycle: 0, Src: 15, Dst: 0, Length: 5},
		{Cycle: 1, Src: 7, Dst: 8, Length: 1},
	}
	var trace bytes.Buffer
	if err := traffic.EncodeTrace(&trace, entries); err != nil {
		t.Fatal(err)
	}
	base := Config{Topology: "mesh:4x4", Routing: "min_adaptive", Traffic: "uniform_random", Rate: 0.9, VNets: 3, Seed: 5, Cycles: 10}
	for _, tc := range []struct {
		name  string
		shape func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"burst", func(c *Config) { c.Workload = &workload.Spec{BurstOn: 16, BurstOff: 48} }},
		{"hotspot", func(c *Config) { c.Workload = &workload.Spec{HotFrac: 0.3, Hotspots: 2} }},
		{"closed_loop", func(c *Config) { c.Workload = &workload.Spec{Mode: "closed", Window: 4} }},
		{"injections", func(c *Config) { c.Traffic, c.Rate, c.Injections = "", 0, entries }},
		{"trace_b64", func(c *Config) {
			c.Traffic, c.Rate, c.TraceB64 = "", 0, base64.StdEncoding.EncodeToString(trace.Bytes())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.shape(&cfg)
			cfg = cfg.Normalized()
			emitted := func(src int, spec sim.PacketSpec) traffic.TraceEntry {
				return traffic.TraceEntry{Src: src, Dst: spec.Dst, Length: spec.Length, VNet: spec.VNet}
			}

			inNet, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []traffic.TraceEntry
			inNet.Network().AddObserver(sim.MaskOf(sim.EvPacketQueued), sim.ProbeFunc(func(e sim.Event) {
				want = append(want, emitted(e.Src, sim.PacketSpec{Dst: e.Dst, Length: e.Len, VNet: e.VNet}))
			}))
			inNet.Network().Step()
			if len(want) == 0 {
				t.Fatal("the source emitted nothing in its first cycle inside a network")
			}

			// The same source, built by Config.source and driven by hand with
			// the terminal streams of an unstepped network of the same config.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net := ref.Network()
			gen, err := cfg.source(net.Config())
			if err != nil {
				t.Fatal(err)
			}
			var got []traffic.TraceEntry
			for src := 0; src < ref.Topology().NumTerminals(); src++ {
				gen.Generate(0, 1, src, net.TerminalRNG(src), func(spec sim.PacketSpec) { got = append(got, emitted(src, spec)) })
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("as built, the source emitted\n%v\ninside a network\n%v", got, want)
			}
		})
	}
}
