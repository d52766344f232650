package spin

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// refScanWatch is the detection pointer's original full-population scan,
// kept here verbatim as the order scanWatch must reproduce: link-port VCs
// in (startSlot+1 … startSlot+total) mod total order, one div/mod and one
// double index per slot.
func refScanWatch(r *sim.Router, port, idx int) (int, int, bool) {
	vcs := r.VCsPerPort()
	total := (r.Radix() - r.LocalPorts()) * vcs
	if total <= 0 {
		return 0, 0, false
	}
	startSlot := 0
	if port >= r.LocalPorts() {
		startSlot = (port-r.LocalPorts())*vcs + idx
	}
	for i := 1; i <= total; i++ {
		slot := (startSlot + i) % total
		p := r.LocalPorts() + slot/vcs
		k := slot % vcs
		v := r.VC(p, k)
		if v.Len() > 0 && !v.WaitingToEject() && !v.Frozen() {
			return p, k, true
		}
	}
	return 0, 0, false
}

// pinRouting steers each packet into one chosen VC of the centre router
// of a 3x3 mesh and parks it there: at the centre it requests a port with
// an empty VC mask, which no downstream VC satisfies.
type pinRouting struct {
	sim.BaseRouting
	mesh   *topology.Mesh
	centre int
	vc     map[uint64]int
}

func (p *pinRouting) Name() string { return "pin" }

func (p *pinRouting) Route(r *sim.Router, _ int, pkt *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	if r.ID == p.centre {
		return append(buf, sim.PortRequest{Port: topology.MeshPort(topology.East)})
	}
	return append(buf, sim.PortRequest{Port: p.mesh.MinimalPorts(r.ID, p.centre)[0], VCMask: 1 << uint(p.vc[pkt.ID])})
}

type vcKind int

const (
	blocked  vcKind = iota // resident waits on a link port: the scan's target
	frozen                 // resident frozen by a recovery: skipped
	ejecting               // resident at its destination router: skipped
)

type placed struct {
	port, vc int
	kind     vcKind
}

const scanVCs = 16 // 5 ports x 16 VCs = 80 slots: the occupied bitset spans two words

// occupy builds the centre router of a 3x3 mesh with exactly the given
// link-port VCs holding a one-flit packet, through the public API alone:
// the four neighbours each send their packets in, pinned to a VC.
func occupy(t *testing.T, want []placed) *Agent {
	t.Helper()
	mesh, err := topology.NewMesh(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const centre = 4
	pin := &pinRouting{mesh: mesh, centre: centre, vc: map[uint64]int{}}
	scheme := New(Config{TDD: 1 << 30})
	n, err := sim.NewNetwork(sim.Config{Topology: mesh, Routing: pin, Scheme: scheme, VCsPerVNet: scanVCs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := n.Router(centre)
	feeder := map[int]int{} // centre input port -> neighbour feeding it
	for _, nb := range []int{1, 3, 5, 7} {
		l, ok := mesh.OutLink(nb, mesh.MinimalPorts(nb, centre)[0])
		if !ok || l.Dst != centre {
			t.Fatalf("router %d has no link to the centre", nb)
		}
		feeder[l.DstPort] = nb
	}
	for _, w := range want {
		dst := 0 // a corner: never the centre, never a feeder
		if w.kind == ejecting {
			dst = centre
		}
		if w.kind != blocked {
			// Hold the arrival in place; ejecting VCs thaw again below.
			r.FreezeVC(r.VC(w.port, w.vc))
		}
		pkt := n.InjectPacket(feeder[w.port], sim.PacketSpec{Dst: dst, Length: 1})
		pin.vc[pkt.ID] = w.vc
	}
	n.Run(64)
	for _, w := range want {
		if w.kind == ejecting {
			r.UnfreezeVC(r.VC(w.port, w.vc))
		}
	}
	got := map[[2]int]bool{}
	for p := r.LocalPorts(); p < r.Radix(); p++ {
		for k := 0; k < scanVCs; k++ {
			if r.VC(p, k).Len() > 0 {
				got[[2]int{p, k}] = true
			}
		}
	}
	for _, w := range want {
		v := r.VC(w.port, w.vc)
		if !got[[2]int{w.port, w.vc}] || v.Frozen() != (w.kind == frozen) || v.WaitingToEject() != (w.kind == ejecting) {
			t.Fatalf("fixture: p%d vc%d len=%d frozen=%v ejecting=%v, want kind %d", w.port, w.vc, v.Len(), v.Frozen(), v.WaitingToEject(), w.kind)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fixture: %d link VCs occupied, want %d (%v)", len(got), len(want), got)
	}
	return scheme.Agents()[centre]
}

// TestScanWatchOrder pins the round-robin order of SPIN's detection
// pointer on hand-built occupancy: named starts against literal answers,
// and every start position against the original modulo loop.
func TestScanWatchOrder(t *testing.T) {
	type pos struct{ port, vc int }
	none := pos{-1, -1}
	type probe struct{ from, want pos }
	last := pos{4, scanVCs - 1}
	cases := []struct {
		name   string
		placed []placed
		probes []probe
	}{
		{"empty router", nil, []probe{{pos{0, -1}, none}, {pos{2, 3}, none}, {last, none}}},
		{"one VC is its own successor, visited last", []placed{{2, 5, blocked}},
			[]probe{{pos{0, -1}, pos{2, 5}}, {pos{2, 4}, pos{2, 5}}, {pos{2, 5}, pos{2, 5}}, {last, pos{2, 5}}}},
		// From (0,-1) the scan starts after the first link slot and comes
		// back to it last.
		{"start at (0,-1) skips the first link slot", []placed{{1, 0, blocked}, {1, 1, blocked}},
			[]probe{{pos{0, -1}, pos{1, 1}}, {pos{1, 1}, pos{1, 0}}, {pos{1, 0}, pos{1, 1}}}},
		{"wrap-around", []placed{{1, 2, blocked}, {3, 0, blocked}},
			[]probe{{pos{3, 0}, pos{1, 2}}, {pos{4, 7}, pos{1, 2}}, {pos{1, 2}, pos{3, 0}}, {pos{2, 15}, pos{3, 0}}}},
		{"start on the last slot", []placed{{1, 0, blocked}, {4, scanVCs - 1, blocked}},
			[]probe{{last, pos{1, 0}}, {pos{1, 0}, last}, {pos{0, -1}, last}}},
		{"all frozen", []placed{{1, 3, frozen}, {2, 0, frozen}, {4, 9, frozen}},
			[]probe{{pos{0, -1}, none}, {pos{1, 3}, none}, {pos{3, 3}, none}}},
		{"ejecting and frozen VCs are skipped", []placed{{1, 4, ejecting}, {1, 9, frozen}, {2, 2, blocked}, {3, 1, ejecting}},
			[]probe{{pos{0, -1}, pos{2, 2}}, {pos{1, 3}, pos{2, 2}}, {pos{2, 2}, pos{2, 2}}, {pos{3, 0}, pos{2, 2}}}},
		// Port 4 is slots 64..79: the second word of the bitset.
		{"across bitset words", []placed{{3, 15, blocked}, {4, 0, blocked}, {4, 12, frozen}, {4, 14, blocked}},
			[]probe{{pos{3, 14}, pos{3, 15}}, {pos{3, 15}, pos{4, 0}}, {pos{4, 0}, pos{4, 14}}, {pos{4, 14}, pos{3, 15}}, {pos{0, -1}, pos{3, 15}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := occupy(t, tc.placed)
			for _, pr := range tc.probes {
				p, k, ok := a.scanWatch(pr.from.port, pr.from.vc)
				if got := (pos{p, k}); ok != (pr.want != none) || (ok && got != pr.want) {
					t.Errorf("scanWatch(%d,%d) = %v %v, want %v", pr.from.port, pr.from.vc, got, ok, pr.want)
				}
			}
			starts := []pos{{0, -1}}
			for p := a.r.LocalPorts(); p < a.r.Radix(); p++ {
				for k := 0; k < scanVCs; k++ {
					starts = append(starts, pos{p, k})
				}
			}
			for _, s := range starts {
				p, k, ok := a.scanWatch(s.port, s.vc)
				rp, rk, rok := refScanWatch(a.r, s.port, s.vc)
				if got, ref := fmt.Sprint(p, k, ok), fmt.Sprint(rp, rk, rok); got != ref {
					t.Errorf("scanWatch(%d,%d) = %s, original loop %s", s.port, s.vc, got, ref)
				}
			}
		})
	}
}
