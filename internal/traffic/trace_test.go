package traffic

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// testNet builds a 4x4 mesh network under xyForTest; VCDepth 8 keeps
// the buffer depth apart from the engine's packet-length cap (5).
func testNet(t *testing.T) *sim.Network {
	t.Helper()
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology: m, Routing: &xyForTest{m: m}, VCsPerVNet: 2, VCDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// replayOver attaches a replay of src to n.
func replayOver(t *testing.T, n *sim.Network, src EntrySource) *StreamReplay {
	t.Helper()
	rp, err := NewStreamReplay(src, n.Config())
	if err != nil {
		t.Fatal(err)
	}
	n.SetTraffic(rp)
	return rp
}

// TestSliceSourceOrder pins the rule for lists that are not
// time-ordered: per source, a later-listed entry never overtakes an
// earlier-listed one (its effective cycle is the running maximum), and
// the caller's slice is left alone.
func TestSliceSourceOrder(t *testing.T) {
	in := []TraceEntry{
		{Cycle: 10, Src: 0, Dst: 1, Length: 1},
		{Cycle: 30, Src: 2, Dst: 1, Length: 1},
		{Cycle: 4, Src: 2, Dst: 3, Length: 1}, // waits behind cycle 30
		{Cycle: 2, Src: 0, Dst: 3, Length: 1}, // waits behind cycle 10
		{Cycle: 20, Src: 1, Dst: 0, Length: 1},
		{Cycle: 31, Src: 2, Dst: 0, Length: 1},
	}
	want := []TraceEntry{
		{Cycle: 10, Src: 0, Dst: 1, Length: 1},
		{Cycle: 10, Src: 0, Dst: 3, Length: 1},
		{Cycle: 20, Src: 1, Dst: 0, Length: 1},
		{Cycle: 30, Src: 2, Dst: 1, Length: 1},
		{Cycle: 30, Src: 2, Dst: 3, Length: 1},
		{Cycle: 31, Src: 2, Dst: 0, Length: 1},
	}
	orig := append([]TraceEntry(nil), in...)
	src := SliceSource(in)
	var got []TraceEntry
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay order\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatal("SliceSource modified the caller's list")
	}
}

// TestRecorderThenReplayIdentical: a Recorder observing a network's
// packet_queued events captures every packet its generator made, and a
// replay of the recording, driven by Generate alone at the turns it names,
// emits exactly those packets, in the same order at the same cycles.
func TestRecorderThenReplayIdentical(t *testing.T) {
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(sim.Config{
		Topology: m, Routing: &xyForTest{m: m}, VNets: 2, VCsPerVNet: 2, Seed: 7,
		Traffic: &Synthetic{Pattern: Uniform(16), Rate: 0.2, VNets: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	n.AddObserver(sim.MaskOf(sim.EvPacketQueued), rec)
	n.Run(2000)
	if made := n.Stats().Ejected + int64(n.InFlight()+n.QueuedPackets()); len(rec.Entries) == 0 || int64(len(rec.Entries)) != made {
		t.Fatalf("recorded %d of the %d packets the generator made", len(rec.Entries), made)
	}
	rp, err := NewStreamReplay(SliceSource(rec.Entries), n.Config())
	if err != nil {
		t.Fatal(err)
	}
	var replayed []TraceEntry
	due := make([]int64, 16)
	for c := int64(0); c < 2100; c++ {
		for src := range due {
			if due[src] == c {
				due[src] = rp.Generate(c, c+64, src, nil, func(spec sim.PacketSpec) {
					replayed = append(replayed, TraceEntry{Cycle: c, Src: src, Dst: spec.Dst, Length: spec.Length, VNet: spec.VNet})
				})
			}
		}
	}
	if rp.Pumped() != int64(len(rec.Entries)) {
		t.Fatalf("pumped %d of %d entries", rp.Pumped(), len(rec.Entries))
	}
	if !reflect.DeepEqual(replayed, rec.Entries) {
		t.Fatalf("replayed %d entries that differ from the %d recorded", len(replayed), len(rec.Entries))
	}
}

func TestReplayDrivesSimulationDeterministically(t *testing.T) {
	var entries []TraceEntry
	for i := 0; i < 50; i++ {
		// Self-destined entries are not a workload.
		if e := (TraceEntry{Cycle: int64(i * 3), Src: i % 16, Dst: (i*7 + 1) % 16, Length: 1 + (i%2)*4}); e.Src != e.Dst {
			entries = append(entries, e)
		}
	}
	run := func() int64 {
		n := testNet(t)
		replayOver(t, n, SliceSource(entries))
		n.Run(1000)
		if n.Stats().Injected != int64(len(entries)) {
			t.Fatalf("injected %d, trace has %d", n.Stats().Injected, len(entries))
		}
		if !n.Drain(10000) {
			t.Fatal("replay run failed to drain")
		}
		return n.Stats().LatencySum
	}
	if run() != run() {
		t.Fatal("trace replay not deterministic")
	}
}

// xyForTest avoids an import cycle with the routing package (which
// imports traffic in its own tests).
type xyForTest struct {
	sim.BaseRouting
	m *topology.Mesh
}

func (x *xyForTest) Name() string { return "xy_test" }

func (x *xyForTest) Route(r *sim.Router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	cx, cy := x.m.Coords(r.ID)
	dx, dy := x.m.Coords(p.RouteDst())
	var port int
	switch {
	case dx > cx:
		port = topology.MeshPort(topology.East)
	case dx < cx:
		port = topology.MeshPort(topology.West)
	case dy > cy:
		port = topology.MeshPort(topology.North)
	default:
		port = topology.MeshPort(topology.South)
	}
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
}

// TestTraceValidate is the bounds table: whichever source an entry
// arrives from, the replay engine refuses what the network cannot host
// with an error, never a panic inside the injector. The network's
// VCDepth is 8, so the length rows pin that the bound is MaxPktLen (5),
// not the buffer depth.
func TestTraceValidate(t *testing.T) {
	good := TraceEntry{Cycle: 1, Src: 0, Dst: 5, Length: 5}
	cases := []struct {
		name string
		e    TraceEntry
		bad  bool
	}{
		{"full-length packet", good, false},
		{"length 6 fits vc_depth, not the engine", TraceEntry{Cycle: 1, Src: 0, Dst: 5, Length: 6}, true},
		{"length 7 fits vc_depth, not the engine", TraceEntry{Cycle: 1, Src: 0, Dst: 5, Length: 7}, true},
		{"vnet >= vnets", TraceEntry{Cycle: 1, Src: 0, Dst: 5, Length: 1, VNet: 1}, true},
		{"dst >= terminals", TraceEntry{Cycle: 1, Src: 0, Dst: 16, Length: 1}, true},
		{"src >= terminals", TraceEntry{Cycle: 1, Src: 16, Dst: 5, Length: 1}, true},
		{"self-destined", TraceEntry{Cycle: 1, Src: 5, Dst: 5, Length: 1}, true},
	}
	for _, tc := range cases {
		entries := []TraceEntry{good, tc.e}
		t.Run(tc.name+"/slice", func(t *testing.T) {
			// An in-memory list fails before the first cycle.
			_, err := NewStreamReplay(SliceSource(entries), testNet(t).Config())
			if (err != nil) != tc.bad {
				t.Fatalf("NewStreamReplay error %v, want bad=%v", err, tc.bad)
			}
		})
		t.Run(tc.name+"/stream", func(t *testing.T) {
			// A stream fails at the entry, and injects nothing after it.
			tr, err := StreamTrace(bytes.NewReader(encodeBytes(t, entries)))
			if err != nil {
				t.Fatal(err)
			}
			n := testNet(t)
			rp := replayOver(t, n, tr)
			n.Run(40)
			if err := rp.Err(); (err != nil) != tc.bad {
				t.Fatalf("stream error %v, want bad=%v", err, tc.bad)
			}
			want := int64(len(entries))
			if tc.bad {
				want--
			}
			if got := n.Stats().Injected; got != want {
				t.Fatalf("injected %d, want %d", got, want)
			}
		})
	}
	// Only a list can carry a negative cycle; the format cannot encode one.
	if _, err := NewStreamReplay(SliceSource([]TraceEntry{{Cycle: -1, Src: 0, Dst: 1, Length: 1}}), testNet(t).Config()); err == nil {
		t.Fatal("negative cycle accepted")
	}
}
