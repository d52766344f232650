package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSpecValidate is the spec-validation table: every malformed field
// combination must fail with a message naming the problem.
func TestSpecValidate(t *testing.T) {
	t.Parallel()
	good := []Spec{
		{},
		{Mode: "open"},
		{Mode: "closed", Window: 8, Think: 16, ReqLen: 1, RespLen: 5},
		{BurstOn: 8, BurstOff: 24},
		{HotFrac: 0.2, Hotspots: 2},
		{Mode: "closed", HotFrac: 0.1},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		s    Spec
		frag string
	}{
		{Spec{Mode: "sideways"}, "unknown mode"},
		{Spec{Mode: "closed", Window: -1}, "window"},
		{Spec{Mode: "closed", Window: 4096}, "window"},
		{Spec{Window: 4}, "mode closed"},
		{Spec{Think: 8}, "mode closed"},
		{Spec{ReqLen: 1}, "mode closed"},
		{Spec{Mode: "closed", Think: -3}, "negative think"},
		{Spec{Mode: "closed", Think: 16, ThinkMax: 4}, "below think"},
		{Spec{Mode: "closed", ReqLen: -1}, "negative packet length"},
		{Spec{BurstOn: 8}, "set together"},
		{Spec{BurstOff: 8}, "set together"},
		{Spec{BurstOn: -1, BurstOff: 4}, "negative burst"},
		{Spec{Mode: "closed", BurstOn: 4, BurstOff: 4}, "mode open"},
		{Spec{HotFrac: 1.5}, "hot_frac"},
		{Spec{HotFrac: -0.1}, "hot_frac"},
		{Spec{Hotspots: 2}, "without hot_frac"},
		{Spec{HotFrac: 0.5, Hotspots: -1}, "negative hotspot"},
	}
	for i, tc := range bad {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, tc.s)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("bad spec %d: error %q does not mention %q", i, err, tc.frag)
		}
	}
}

// TestSpecNormalize pins the default-filling rules the canonical
// scenario encoding depends on: two specs that simulate identically must
// normalize to identical structs.
func TestSpecNormalize(t *testing.T) {
	t.Parallel()
	s := Spec{Mode: "closed", Think: 10}
	s.Normalize()
	if s.Window != 4 || s.ReqLen != 1 || s.RespLen != 5 || s.ThinkMax != 80 {
		t.Fatalf("closed defaults wrong: %+v", s)
	}

	s = Spec{Mode: "closed"}
	s.Normalize()
	if s.ThinkMax != 0 {
		t.Fatalf("think_max set without think: %+v", s)
	}

	s = Spec{HotFrac: 0.3}
	s.Normalize()
	if s.Mode != "open" || s.Hotspots != 1 {
		t.Fatalf("hotspot defaults wrong: %+v", s)
	}

	for _, zero := range []Spec{{}, {Mode: "open"}} {
		zero.Normalize()
		if !zero.IsZero() {
			t.Fatalf("spec %+v should be zero", zero)
		}
	}
	for _, nz := range []Spec{{Mode: "closed"}, {BurstOn: 4, BurstOff: 4}, {HotFrac: 0.1}} {
		nz.Normalize()
		if nz.IsZero() {
			t.Fatalf("spec %+v should not be zero", nz)
		}
	}
}

// closedLoop builds the closed-loop client set of s (mode closed implied)
// for 16 terminals on two vnets, offering rate.
func closedLoop(t *testing.T, s Spec, rate float64, seed int64) *ClosedLoop {
	t.Helper()
	s.Mode = "closed"
	gen, err := Build(s, traffic.Uniform(16), rate, 0, 2, 16, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen.(*ClosedLoop)
}

// closedNet builds a 4x4 mesh network driven by closedLoop's client set.
func closedNet(t *testing.T, s Spec, rate float64, seed int64) (*sim.Network, *ClosedLoop) {
	t.Helper()
	m, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := closedLoop(t, s, rate, seed)
	n, err := sim.NewNetwork(sim.Config{
		Topology:   m,
		Routing:    &routing.XY{Mesh: m},
		Traffic:    cl,
		VNets:      2,
		VCsPerVNet: 2,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, cl
}

// TestClosedLoopHonorsWindow runs the clients under the invariant
// checker and asserts the finite-window contract end to end: no checker
// violations, per-terminal outstanding within [0, W], audit clean, and
// conservation between issues and completions.
func TestClosedLoopHonorsWindow(t *testing.T) {
	t.Parallel()
	n, cl := closedNet(t, Spec{Window: 2, Think: 4}, 0.5, 7)
	checker := n.AttachChecker(sim.CheckOptions{})
	n.Run(600)
	for _, v := range checker.Violations() {
		t.Errorf("violation: %v", v)
	}
	if cl.Issued() == 0 {
		t.Fatal("closed loop issued nothing")
	}
	for term := 0; term < 16; term++ {
		if o := cl.Outstanding(term); o < 0 || o > cl.WindowLimit() {
			t.Fatalf("terminal %d outstanding %d outside [0,%d]", term, o, cl.WindowLimit())
		}
	}
	if err := cl.AuditWindows(); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.InWindow(), cl.Issued()-cl.Completed(); got != want {
		t.Fatalf("in-window %d != issued-completed %d", got, want)
	}
	// Quiesced drain retires every outstanding request.
	if !n.Drain(20000) {
		t.Fatal("closed loop failed to drain")
	}
	if cl.InWindow() != 0 {
		t.Fatalf("%d requests still in window after drain", cl.InWindow())
	}
	if cl.Issued() != cl.Completed() {
		t.Fatalf("drained with issued %d != completed %d", cl.Issued(), cl.Completed())
	}
}

// TestCheckerCatchesWindowOverflow corrupts the per-terminal outstanding
// counter above the window limit and asserts the invariant checker's
// RuleWindow fires — the detection path for a client that ignores its
// window.
func TestCheckerCatchesWindowOverflow(t *testing.T) {
	t.Parallel()
	n, cl := closedNet(t, Spec{Window: 2}, 0.5, 1)
	checker := n.AttachChecker(sim.CheckOptions{})
	n.Run(50)
	if vs := checker.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported %v", vs)
	}
	cl.outstanding[5] = int32(cl.WindowLimit() + 3) // corrupt: client over-issued
	cl.issued[5] += int64(cl.WindowLimit() + 3)     // keep the audit identity intact
	n.Run(2)
	found := false
	for _, v := range checker.Violations() {
		if v.Rule == sim.RuleWindow && strings.Contains(v.Detail, "terminal 5") {
			found = true
		}
	}
	if !found {
		t.Fatalf("window overflow not detected; violations: %v", checker.Violations())
	}
}

// TestCheckerCatchesAccountingMismatch corrupts the issued/completed
// books so outstanding no longer equals issued-completed; AuditWindows
// must report it and the checker must surface it as RuleWindow.
func TestCheckerCatchesAccountingMismatch(t *testing.T) {
	t.Parallel()
	n, cl := closedNet(t, Spec{Window: 4}, 0.5, 2)
	checker := n.AttachChecker(sim.CheckOptions{})
	n.Run(50)
	cl.completed[3] += 2 // corrupt: replies retired that were never issued
	if err := cl.AuditWindows(); err == nil {
		t.Fatal("audit missed the corrupted books")
	}
	n.Run(2)
	found := false
	for _, v := range checker.Violations() {
		if v.Rule == sim.RuleWindow {
			found = true
		}
	}
	if !found {
		t.Fatalf("accounting mismatch not surfaced; violations: %v", checker.Violations())
	}
}

// TestClosedLoopRejectsUnmatchedReplies drives OnEject directly with
// replies that have no matching request: the error must be sticky and
// specific, and must not panic or corrupt counters below zero.
func TestClosedLoopRejectsUnmatchedReplies(t *testing.T) {
	t.Parallel()
	cl := closedLoop(t, Spec{}, 0.5, 0)
	cl.PrepareTerminals(16)
	cl.OnEject(&sim.Packet{VNet: 1, Dst: 3}) // reply with nothing outstanding
	if err := cl.AuditWindows(); err == nil || !strings.Contains(err.Error(), "no outstanding") {
		t.Fatalf("unmatched reply not flagged: %v", err)
	}
	if cl.Outstanding(3) != 0 {
		t.Fatalf("outstanding went negative: %d", cl.Outstanding(3))
	}

	cl2 := closedLoop(t, Spec{}, 0.5, 0)
	cl2.PrepareTerminals(16)
	cl2.OnEject(&sim.Packet{VNet: 1, Dst: 99}) // reply addressed off the grid
	if err := cl2.AuditWindows(); err == nil || !strings.Contains(err.Error(), "unknown terminal") {
		t.Fatalf("out-of-range reply not flagged: %v", err)
	}
}

// TestBuildRejects is Build's rejection table: a malformed spec (every
// malformed field is in TestSpecValidate), and what only the run knows —
// the network's vnets, terminals and packet-length cap (5 here), and the
// offered rate.
func TestBuildRejects(t *testing.T) {
	t.Parallel()
	closed := func(s Spec) Spec { s.Mode = "closed"; return s }
	for _, tc := range []struct {
		name  string
		s     Spec
		rate  float64
		vnets int
		frag  string
	}{
		{"one vnet", closed(Spec{}), 0.5, 1, "vnets"},
		{"no rate", closed(Spec{}), 0, 2, "positive rate"},
		{"window 2000", closed(Spec{Window: 2000}), 0.5, 2, "window"},
		{"req_len 9", closed(Spec{ReqLen: 9}), 0.5, 2, "request length"},
		{"resp_len 6", closed(Spec{RespLen: 6}), 0.5, 2, "response length"},
		{"negative think", closed(Spec{Think: -1}), 0.5, 2, "negative think"},
		{"think cap below think", closed(Spec{Think: 8, ThinkMax: 2}), 0.5, 2, "below think"},
		{"more hotspots than terminals", Spec{HotFrac: 0.5, Hotspots: 32}, 0.3, 1, "exceed"},
	} {
		_, err := Build(tc.s, traffic.Uniform(16), tc.rate, 0.5, tc.vnets, 16, 5, 1)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.frag)
		}
	}
}

// countingGen records which (cycle, src) pairs the burst gate let
// through.
type countingGen struct {
	calls int
}

func (g *countingGen) Name() string { return "counting" }
func (g *countingGen) Generate(cycle int64, src int, rng *rand.Rand, emit func(sim.PacketSpec)) {
	g.calls++
}

// TestBurstGatesAndIsDeterministic drives the burst wrapper standalone:
// the same rng stream yields the same on/off gating, and the long-run on
// fraction tracks the configured duty cycle.
func TestBurstGatesAndIsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() (int, []bool) {
		inner := &countingGen{}
		b := &Burst{Inner: inner, OnMean: 10, OffMean: 30}
		b.PrepareTerminals(1)
		rng := rand.New(rand.NewSource(99))
		gates := make([]bool, 4000)
		for c := int64(0); c < 4000; c++ {
			before := inner.calls
			b.Generate(c, 0, rng, nil)
			gates[c] = inner.calls > before
		}
		return inner.calls, gates
	}
	calls, gates := run()
	calls2, gates2 := run()
	if calls != calls2 {
		t.Fatalf("burst gating not deterministic: %d vs %d", calls, calls2)
	}
	for i := range gates {
		if gates[i] != gates2[i] {
			t.Fatalf("gate sequence diverged at cycle %d", i)
		}
	}
	// Duty cycle 10/(10+30) = 0.25; allow generous slack for a finite run.
	frac := float64(calls) / 4000
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("on fraction %.3f wildly off duty cycle 0.25", frac)
	}
	if calls == 0 || calls == 4000 {
		t.Fatal("burst gate never switched state")
	}
}

// TestHotspotSkew checks the destination skew: Frac=1 concentrates all
// traffic on the hot terminal (except draws from the hot terminal
// itself), Frac=0 never does.
func TestHotspotSkew(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	hot := &Hotspot{Inner: traffic.Uniform(16), Frac: 1, Hot: []int{5}}
	for i := 0; i < 500; i++ {
		if d := hot.Dest(3, rng); d != 5 {
			t.Fatalf("Frac=1 draw %d went to %d", i, d)
		}
	}
	// From the hot terminal itself the draw falls through to the inner
	// pattern rather than self-addressing.
	for i := 0; i < 500; i++ {
		if d := hot.Dest(5, rng); d == 5 {
			t.Fatalf("hotspot self-addressed terminal 5")
		}
	}
	cold := &Hotspot{Inner: traffic.Uniform(16), Frac: 0, Hot: []int{5}}
	hits := 0
	for i := 0; i < 3200; i++ {
		if cold.Dest(3, rng) == 5 {
			hits++
		}
	}
	// Uniform background sends ~1/15 of terminal 3's packets to 5.
	if hits == 0 || hits > 3200/4 {
		t.Fatalf("Frac=0 hot hits %d/3200 not uniform-like", hits)
	}
}

// TestBuild pins the builder's dispatch: closed specs yield closed-loop
// clients, bursty specs yield duty-compensated burst wrappers, and hotspot
// specs wrap the pattern (TestBuildRejects has what it refuses).
func TestBuild(t *testing.T) {
	t.Parallel()
	pat := traffic.Uniform(16)

	gen, err := Build(Spec{Mode: "closed", Window: 8}, pat, 0.3, 0.5, 2, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := gen.(*ClosedLoop)
	if !ok {
		t.Fatalf("closed spec built %T", gen)
	}
	if cl.WindowLimit() != 8 {
		t.Fatalf("window %d, want 8", cl.WindowLimit())
	}

	gen, err = Build(Spec{BurstOn: 10, BurstOff: 30}, pat, 0.2, 0.5, 1, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := gen.(*Burst)
	if !ok {
		t.Fatalf("burst spec built %T", gen)
	}
	syn, ok := b.Inner.(*traffic.Synthetic)
	if !ok {
		t.Fatalf("burst wraps %T", b.Inner)
	}
	if want := 0.2 / 0.25; syn.Rate < want-1e-9 || syn.Rate > want+1e-9 {
		t.Fatalf("duty-compensated rate %g, want %g", syn.Rate, want)
	}

	gen, err = Build(Spec{HotFrac: 0.3, Hotspots: 2}, pat, 0.2, 0.5, 1, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := gen.(*traffic.Synthetic); !ok {
		t.Fatalf("hotspot spec built %T", gen)
	} else if _, ok := s.Pattern.(*Hotspot); !ok {
		t.Fatalf("hotspot spec pattern %T", s.Pattern)
	}
}
