package spin_test

import (
	"slices"
	"testing"

	"repro/internal/spin"
)

// Hand-built port views: each VC is idle, ejecting, or blocked on a port
// (frozen or not).
var (
	idle     = spin.PortVC{Idle: true, Blocked: -1}
	ejecting = spin.PortVC{Ejecting: true, Blocked: -1}
	granted  = spin.PortVC{Blocked: -1} // occupied but able to advance
)

func blocked(out int) spin.PortVC { return spin.PortVC{Blocked: out} }

func frozen(out int) spin.PortVC { return spin.PortVC{Blocked: out, Frozen: true} }

// ring is a hand-built frozen chain for SpinOrAbort: hop i lands on the VC
// held by holders[i]; the walk is back at its start after the last one.
func ring(holders ...int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		h := holders[i%len(holders)]
		i++
		return h, i%len(holders) == 0
	}
}

// TestRules drives every verdict of every rule in rules.go, including the
// multi-VC branches the model checker's one-VC instances never reach.
func TestRules(t *testing.T) {
	hop := spin.ProbeHop{PathLen: 3, MaxPath: 10}
	forked, noFork, long, culled := hop, hop, hop, hop
	forked.Forked, noFork.NoFork, long.PathLen, culled.Culled = true, true, 10, true
	move := spin.MoveHop{Out: 2, Holder: -1, Sender: 4}
	home := spin.MoveHop{Home: true, Latched: true, Out: 2, Holder: -1, Sender: 4}
	misreturn, malformed, held, own := home, move, move, move
	misreturn.Latched, malformed.Out, held.Holder, own.Holder = false, -1, 7, 4

	reached := map[spin.Verdict]bool{}
	for _, c := range []struct {
		name string
		port []spin.PortVC
		hop  spin.ProbeHop
		want spin.Verdict
		outs []int
	}{
		{"one blocked VC forwards", []spin.PortVC{blocked(2)}, hop, spin.Forward, []int{2}},
		{"same port twice forwards once", []spin.PortVC{blocked(2), ejecting, blocked(2)}, hop, spin.Forward, []int{2}},
		{"two blocked ports fork", []spin.PortVC{blocked(2), blocked(3)}, hop, spin.Fork, []int{2, 3}},
		{"a forked copy narrows to one port", []spin.PortVC{blocked(3), blocked(2)}, forked, spin.Forward, []int{3}},
		{"DisableProbeFork drops a fork", []spin.PortVC{blocked(2), blocked(3)}, noFork, spin.DropNoFork, nil},
		{"DisableProbeFork keeps one port", []spin.PortVC{blocked(2)}, noFork, spin.Forward, []int{2}},
		{"a frozen VC is still a dependency", []spin.PortVC{frozen(2)}, hop, spin.Forward, []int{2}},
		{"path at the cap", []spin.PortVC{blocked(2)}, long, spin.DropTooLong, nil},
		{"culled by priority", []spin.PortVC{blocked(2)}, culled, spin.DropPriority, nil},
		{"an idle VC is progress", []spin.PortVC{blocked(2), idle}, hop, spin.DropProgress, nil},
		{"a granted VC is progress", []spin.PortVC{granted, blocked(2)}, hop, spin.DropProgress, nil},
		{"only ejecting VCs", []spin.PortVC{ejecting, ejecting}, hop, spin.DropEject, nil},
	} {
		v, outs := spin.ForkProbe(c.port, c.hop, make([]int, 0, len(c.port)))
		reached[v] = true
		if v != c.want || !slices.Equal(outs, c.outs) {
			t.Errorf("ForkProbe: %s: got %v %v, want %v %v", c.name, v, outs, c.want, c.outs)
		}
	}

	for _, c := range []struct {
		name string
		port []spin.PortVC
		out  int
		want bool
	}{
		{"blocked on the launch port", []spin.PortVC{blocked(2)}, 2, true},
		{"blocked elsewhere", []spin.PortVC{blocked(3)}, 2, false},
		{"already frozen", []spin.PortVC{frozen(2)}, 2, false},
		{"second VC matches", []spin.PortVC{ejecting, blocked(2)}, 2, true},
		{"idle", []spin.PortVC{idle}, 2, false},
	} {
		if got := spin.ConfirmsLoop(c.port, c.out); got != c.want {
			t.Errorf("ConfirmsLoop: %s: got %v, want %v", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		name  string
		port  []spin.PortVC
		m     spin.MoveHop
		want  spin.Verdict
		wantK int
	}{
		{"freezes the blocked VC", []spin.PortVC{blocked(2)}, move, spin.Forward, 0},
		{"skips a VC frozen by the same recovery", []spin.PortVC{frozen(2), blocked(2)}, own, spin.Forward, 1},
		{"picks the VC blocked on its next hop", []spin.PortVC{blocked(3), blocked(2)}, move, spin.Forward, 1},
		{"meets a VC frozen for another source", []spin.PortVC{frozen(2), blocked(2)}, held, spin.DropConflict, -1},
		{"only a frozen candidate", []spin.PortVC{frozen(2)}, own, spin.DropStale, -1},
		{"dependency gone", []spin.PortVC{blocked(3)}, move, spin.DropStale, -1},
		{"path used up", []spin.PortVC{blocked(2)}, malformed, spin.DropMalformed, -1},
		{"home arms", []spin.PortVC{idle, blocked(2)}, home, spin.Arm, 1},
		{"home, dependency dissolved", []spin.PortVC{granted}, home, spin.Cancel, -1},
		{"home, not awaited", []spin.PortVC{blocked(2)}, misreturn, spin.DropMisreturn, -1},
	} {
		v, k := spin.FreezeOnMove(c.port, c.m)
		reached[v] = true
		if v != c.want || k != c.wantK {
			t.Errorf("FreezeOnMove: %s: got %v %d, want %v %d", c.name, v, k, c.want, c.wantK)
		}
	}

	for _, c := range []struct {
		name                string
		home                bool
		next, holder, owner int
		want                spin.Verdict
	}{
		{"home", true, -1, -1, 4, spin.Home},
		{"path used up", false, -1, 4, 4, spin.Ignore},
		{"held by its recovery", false, 2, 4, 4, spin.Forward},
		{"held by another recovery", false, 2, 7, 4, spin.DropKill},
		{"not frozen", false, 2, -1, 4, spin.DropKill},
	} {
		v := spin.AcceptKill(c.home, c.next, c.holder, c.owner)
		reached[v] = true
		if v != c.want {
			t.Errorf("AcceptKill: %s: got %v, want %v", c.name, v, c.want)
		}
	}

	for _, c := range []struct {
		name                        string
		inPort, out, port, entryOut int
		spinning, want              bool
	}{
		{"exact match", 1, 2, 1, 2, false, true},
		{"meets a SpinInProgress entry", 1, 2, 1, 2, true, false},
		{"other input port", 1, 2, 3, 2, false, false},
		{"other output port", 1, 2, 1, 3, false, false},
	} {
		if got := spin.Releases(c.inPort, c.out, c.port, c.entryOut, c.spinning); got != c.want {
			t.Errorf("Releases: %s: got %v, want %v", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		name    string
		maxHops int
		clash   bool
		next    func() (int, bool)
		want    spin.Verdict
	}{
		{"closed chain", 8, false, ring(4, 4, 4), spin.Spin},
		{"a self-loop", 8, false, ring(4), spin.Spin},
		{"closes on the last allowed hop", 2, false, ring(4, 4, 4), spin.Spin},
		{"longer than the walk", 1, false, ring(4, 4, 4), spin.Abort},
		{"port clash", 8, true, ring(4, 4, 4), spin.Abort},
		{"broken chain", 8, false, ring(4, -1, 4), spin.Abort},
		{"crosses another recovery", 8, false, ring(4, 7, 4), spin.Abort},
	} {
		v := spin.SpinOrAbort(4, c.maxHops, c.clash, c.next)
		reached[v] = true
		if v != c.want {
			t.Errorf("SpinOrAbort: %s: got %v, want %v", c.name, v, c.want)
		}
	}

	for v := spin.Forward; v <= spin.Abort; v++ {
		if !reached[v] {
			t.Errorf("no case reaches verdict %v", v)
		}
	}
}

// TestRulesAllocateNothing holds the rules to the hot path's budget: the
// agent calls them on every special message.
func TestRulesAllocateNothing(t *testing.T) {
	port := []spin.PortVC{blocked(2), blocked(3), ejecting}
	var buf [4]int
	next := ring(4, 4)
	if n := testing.AllocsPerRun(100, func() {
		spin.ForkProbe(port, spin.ProbeHop{MaxPath: 10}, buf[:0])
		spin.ConfirmsLoop(port, 3)
		spin.FreezeOnMove(port, spin.MoveHop{Out: 3, Holder: -1})
		spin.AcceptKill(false, 2, 4, 4)
		spin.SpinOrAbort(4, 8, false, next)
	}); n != 0 {
		t.Fatalf("rules allocate %v times per call", n)
	}
}
