package sim

import (
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// vcFixture builds a 2-router line so VCs have real routers behind them.
func vcFixture(t *testing.T) (*Network, *VC) {
	t.Helper()
	g := lineTopology(t)
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VCsPerVNet: 2, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	return n, n.Router(1).VC(2, 0)
}

func TestVCCanAcceptSemantics(t *testing.T) {
	_, v := vcFixture(t)
	if !v.CanAccept(5) {
		t.Fatal("empty VC should accept a full packet")
	}
	p := &Packet{ID: 1, Length: 5}
	v.reserve(p, 10, false)
	if v.CanAccept(1) {
		t.Fatal("reserved VC accepted another packet")
	}
	if v.ActiveTime(15) != 5 {
		t.Fatalf("active time = %d, want 5", v.ActiveTime(15))
	}
	// Tail dequeue of the owner releases the reservation.
	v.enqueue(Flit{Pkt: p, Seq: 0}, 10)
	v.enqueue(Flit{Pkt: p, Seq: 4}, 11) // tail (length 5)
	v.dequeue()
	v.dequeue()
	if v.resvOwner != nil {
		t.Fatal("reservation not released on tail dequeue")
	}
	if v.ActiveTime(20) != 0 {
		t.Fatal("idle VC should report zero active time")
	}
}

func TestVCDoubleReservationPanics(t *testing.T) {
	_, v := vcFixture(t)
	v.reserve(&Packet{ID: 1, Length: 1}, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double reservation should panic")
		}
	}()
	v.reserve(&Packet{ID: 2, Length: 1}, 0, false)
}

func TestVCForceReservationOverrides(t *testing.T) {
	_, v := vcFixture(t)
	old := &Packet{ID: 1, Length: 2}
	v.reserve(old, 0, false)
	v.enqueue(Flit{Pkt: old, Seq: 0}, 0)
	v.enqueue(Flit{Pkt: old, Seq: 1}, 0)
	spun := &Packet{ID: 2, Length: 2}
	v.reserve(spun, 5, true)
	if v.resvOwner != spun {
		t.Fatal("force reserve did not override")
	}
	// Old packet's tail leaving must NOT clear the new owner.
	v.dequeue()
	v.dequeue()
	if v.resvOwner != spun {
		t.Fatal("old tail cleared the spin packet's reservation")
	}
}

func TestVCResidentComplete(t *testing.T) {
	_, v := vcFixture(t)
	p := &Packet{ID: 3, Length: 3}
	v.reserve(p, 0, false)
	v.enqueue(Flit{Pkt: p, Seq: 0}, 0)
	if v.ResidentComplete() {
		t.Fatal("partial packet reported complete")
	}
	v.enqueue(Flit{Pkt: p, Seq: 1}, 1)
	v.enqueue(Flit{Pkt: p, Seq: 2}, 2)
	if !v.ResidentComplete() {
		t.Fatal("full packet reported incomplete")
	}
}

func TestVCOverflowPanics(t *testing.T) {
	_, v := vcFixture(t)
	p := &Packet{ID: 4, Length: 5}
	for i := 0; i < 5; i++ {
		v.enqueue(Flit{Pkt: p, Seq: i}, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow should panic")
		}
	}()
	v.enqueue(Flit{Pkt: p, Seq: 5}, 0)
}

func TestVCVNetIndexing(t *testing.T) {
	g := lineTopology(t)
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VNets: 3, VCsPerVNet: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := n.Router(0)
	if got := r.VC(1, 0).VNet(); got != 0 {
		t.Fatalf("vc0 vnet = %d", got)
	}
	if got := r.VC(1, 3).VNet(); got != 1 {
		t.Fatalf("vc3 vnet = %d", got)
	}
	if got := r.VC(1, 5).VNet(); got != 2 {
		t.Fatalf("vc5 vnet = %d", got)
	}
}

// lineTopology is a minimal 2-router bidirectional line: terminal port 0,
// link ports 1 (east at r0 / unused at r1) and 2 (west input at r1).
func lineTopology(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.NewGraph("line2", 2, []int{0, 1}, []topology.Link{
		{Src: 0, SrcPort: 1, Dst: 1, DstPort: 2, Latency: 1},
		{Src: 1, SrcPort: 1, Dst: 0, DstPort: 2, Latency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nopRouting always requests port 1 — enough for fixtures that never
// route real traffic.
type nopRouting struct{ BaseRouting }

func (nopRouting) Name() string { return "nop" }

func (nopRouting) Route(_ *Router, _ int, _ *Packet, buf []PortRequest) []PortRequest {
	return append(buf, PortRequest{Port: 1, VCMask: AllVCs})
}

// TestHotStructSizeClasses is the size guard on the per-entity structs. They
// are laid out in slabs (one []VC, []Router, []NIC per network), so a word
// added to VC no longer rounds every VC up an allocator size class; it costs
// +8 B × VCs in the slab (2,880 VCs on a 3-vnet, 3-VC mesh8x8; 34,560 on
// the 1024-node dragonfly) and a wider stride between the VCs a router
// walks. A router reaches its VCs as windows of that slab, so no pointer per
// VC is paid beside it. VC's 104 B are two slice headers and five words
// (88 B), twelve bytes of narrowed fields (see VC) and four of padding: a
// field that does not fit the padding costs a word. The
// stall index lives in Router and Network only (the four worklists are
// windows of one slab: four slice headers, not four allocations) and adds
// nothing to VC or NIC. A queued record is what a run past the knee grows
// by, one per packet in a source backlog: 16 B, with GenCycle kept as its
// low 32 bits, and a backlog grows by 264 B blocks of sixteen records
// behind a link. A flit in flight is one 32 B entry of the arrival wheel (a
// flit, the VC it lands in, the link it crosses), and a link, whose flits
// are on the wheel, not in a list of its own, is 128 B: its topology record,
// its SM list and its utilisation counters. Growing one of these is a
// decision, so the numbers are pinned.
func TestHotStructSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, fits uintptr
	}{
		{"VC", unsafe.Sizeof(VC{}), 104},
		{"Router", unsafe.Sizeof(Router{}), 368},
		{"NIC", unsafe.Sizeof(NIC{}), 96},
		{"queued", unsafe.Sizeof(queued{}), 16},
		{"recBlock", unsafe.Sizeof(recBlock{}), 264},
		{"flitTransit", unsafe.Sizeof(flitTransit{}), 32},
		{"link", unsafe.Sizeof(link{}), 128},
	} {
		if c.got > c.fits {
			t.Errorf("%s is %d bytes, past its %d-byte size class", c.name, c.got, c.fits)
		}
		t.Logf("%s %d/%d", c.name, c.got, c.fits)
	}
}

// TestVCBufferGrowsTwice: a VC's buffer is allocated at most twice, to one
// flit and then to the depth, so a full VC holds exactly VCDepth slots.
func TestVCBufferGrowsTwice(t *testing.T) {
	for _, depth := range []int{MaxPktLen, 6, 16} {
		n, err := NewNetwork(Config{Topology: lineTopology(t), Routing: nopRouting{}, VCsPerVNet: 1, VCDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		v := n.Router(0).VC(0, 0)
		p := &Packet{ID: 1, Length: depth}
		grown := 0
		for seq := 0; seq < depth; seq++ {
			was := cap(v.buf)
			v.enqueue(Flit{Pkt: p, Seq: seq}, 0)
			if cap(v.buf) != was {
				grown++
			}
		}
		if grown > 2 || cap(v.buf) != depth {
			t.Errorf("depth %d: the buffer was allocated %d times and holds %d slots, want at most 2 and %d", depth, grown, cap(v.buf), depth)
		}
	}
}
