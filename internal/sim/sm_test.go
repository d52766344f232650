package sim

import (
	"testing"

	"repro/internal/topology"
)

func TestSMKindStrings(t *testing.T) {
	cases := map[SMKind]string{
		SMProbe:     "probe",
		SMMove:      "move",
		SMProbeMove: "probe_move",
		SMKillMove:  "kill_move",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if SMKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestSMCloneIsDeep(t *testing.T) {
	m := &SM{Kind: SMProbe, Sender: 3, Path: []uint8{1, 2}, SpinCycle: 9, LoopLen: 4, HopCycles: 7, FirstOut: 2}
	c := m.Clone()
	c.Path = append(c.Path, 5)
	c.Path[0] = 9
	if len(m.Path) != 2 || m.Path[0] != 1 {
		t.Fatalf("clone shares path storage: %v", m.Path)
	}
	if c.Sender != 3 || c.SpinCycle != 9 || c.HopCycles != 7 || c.FirstOut != 2 {
		t.Fatal("clone lost fields")
	}
	if m.String() == "" || c.String() == "" {
		t.Fatal("empty SM render")
	}
}

func TestPacketHelpers(t *testing.T) {
	p := &Packet{ID: 7, Src: 1, Dst: 2, DstRouter: 5, Intermediate: 3, Phase: 0, Length: 5}
	if p.RouteDst() != 3 {
		t.Fatal("phase-0 non-minimal packet should head for the intermediate router")
	}
	p.Phase = 1
	if p.RouteDst() != 5 {
		t.Fatal("phase-1 packet should head for the destination router")
	}
	p.Intermediate = -1
	p.Phase = 0
	if p.RouteDst() != 5 {
		t.Fatal("minimal packet should head for the destination router")
	}
	if p.String() == "" {
		t.Fatal("empty packet render")
	}
	head := Flit{Pkt: p, Seq: 0}
	tail := Flit{Pkt: p, Seq: 4}
	if !head.IsHead() || head.IsTail() {
		t.Fatal("head flit misclassified")
	}
	if tail.IsHead() || !tail.IsTail() {
		t.Fatal("tail flit misclassified")
	}
	single := Flit{Pkt: &Packet{Length: 1}, Seq: 0}
	if !single.IsHead() || !single.IsTail() {
		t.Fatal("single-flit packet should be head and tail")
	}
}

func TestChecksumDistinguishesIdentity(t *testing.T) {
	a := checksumFor(1, 2, 3, 5)
	if a != checksumFor(1, 2, 3, 5) {
		t.Fatal("checksum not deterministic")
	}
	for _, b := range []uint64{
		checksumFor(2, 2, 3, 5),
		checksumFor(1, 3, 3, 5),
		checksumFor(1, 2, 4, 5),
		checksumFor(1, 2, 3, 1),
	} {
		if a == b {
			t.Fatal("checksum collision across identities")
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.AvgLatency() != 0 || s.AvgNetLatency() != 0 || s.AvgHops() != 0 || s.Throughput(8) != 0 {
		t.Fatal("zero-value stats should report zeros")
	}
	s.EjectedMeasured = 4
	s.LatencySum = 40
	s.NetLatencySum = 20
	s.HopSum = 12
	s.MeasuredCycles = 100
	s.EjectedFlitsMeas = 50
	if s.AvgLatency() != 10 || s.AvgNetLatency() != 5 || s.AvgHops() != 3 {
		t.Fatal("averages wrong")
	}
	if got := s.Throughput(5); got != 0.1 {
		t.Fatalf("throughput = %f, want 0.1", got)
	}
	s.Count("x", 2)
	s.Count("x", 3)
	if s.Counter("x") != 5 || s.Counter("y") != 0 {
		t.Fatal("counter bookkeeping wrong")
	}
}

// fanInAgent drives router 3 of the fan3 fixture below from phase 2, where
// the engine sends: its Tick launches a flit on each of lo and hi at cycle
// 0, hi first so that send order is not link order, and an SM on mid at
// cycle 1, so all three land at cycle 2. HandleSM records how many flits
// the input ports of lo and hi hold at that moment.
type fanInAgent struct {
	BaseAgent
	r           *Router
	lo, mid, hi *link
	seen        [2]int
	called      int
}

func (a *fanInAgent) Tick() {
	n := a.r.net
	switch n.now {
	case 0:
		for i, l := range []*link{a.hi, a.lo} {
			dst := a.r.VC(l.topo.DstPort, 0)
			n.inFlightOps = append(n.inFlightOps, dst)
			n.sendFlit(l, Flit{Pkt: &Packet{ID: uint64(i + 1), Length: 1, Intermediate: -1}}, dst)
		}
	case 1:
		n.sendSM(a.mid, &SM{Kind: SMProbe})
	}
}

func (a *fanInAgent) HandleSM(*SM, int) {
	a.called++
	for i, l := range []*link{a.lo, a.hi} {
		a.seen[i] = a.r.VC(l.topo.DstPort, 0).Len()
	}
}

// TestSMSeesLowerLinkFlits: a cycle delivers as if link by link in
// ascending index, each link's flits before its SMs, so an SM handler that
// looks at other ports sees the flits landing this cycle from links below
// its own and none from links above. Router 3 is fed by three links in
// index order lo < mid < hi; flits on lo and hi land in the cycle the SM on
// mid does.
func TestSMSeesLowerLinkFlits(t *testing.T) {
	g, err := topology.NewGraph("fan3", 4, []int{0, 1, 2, 3}, []topology.Link{
		{Src: 0, SrcPort: 1, Dst: 3, DstPort: 1, Latency: 1},
		{Src: 1, SrcPort: 1, Dst: 3, DstPort: 2, Latency: 1},
		{Src: 2, SrcPort: 1, Dst: 3, DstPort: 3, Latency: 1},
		{Src: 3, SrcPort: 1, Dst: 0, DstPort: 1, Latency: 1},
		{Src: 3, SrcPort: 2, Dst: 1, DstPort: 1, Latency: 1},
		{Src: 3, SrcPort: 3, Dst: 2, DstPort: 1, Latency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(Config{Topology: g, Routing: nopRouting{}, VCsPerVNet: 1, VCDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := n.Router(3)
	into := func(port int) *link {
		for _, l := range n.links {
			if l.dst == r && l.topo.DstPort == port {
				return l
			}
		}
		t.Fatalf("no link into r3 p%d", port)
		return nil
	}
	a := &fanInAgent{r: r, lo: into(1), mid: into(2), hi: into(3)}
	if !(a.lo.index < a.mid.index && a.mid.index < a.hi.index) {
		t.Fatalf("fixture premise: link indices %d, %d, %d are not ascending", a.lo.index, a.mid.index, a.hi.index)
	}
	n.SetAgent(3, a)
	n.Run(2)
	if a.called != 0 || n.Stats().BufferWrites != 0 {
		t.Fatalf("by cycle 2 the SM was handled %d times and %d flits landed, want none", a.called, n.Stats().BufferWrites)
	}
	n.Step()
	if a.called != 1 || n.Stats().BufferWrites != 2 {
		t.Fatalf("cycle 2 handled the SM %d times and landed %d flits, want 1 and 2", a.called, n.Stats().BufferWrites)
	}
	if a.seen != [2]int{1, 0} {
		t.Errorf("the handler saw %d flits at the lower link's port and %d at the higher's, want 1 and 0", a.seen[0], a.seen[1])
	}
}
