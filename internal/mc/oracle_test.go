package mc

import "testing"

// referenceDeadlocked is the deadlock oracle as the liveness fixpoint the
// model first mirrored sim.Network.FindDeadlock with: maps keyed by VC,
// swept until nothing changes. The graph-closure oracle must agree with it
// on every state.
func referenceDeadlocked(in *Instance, s *State) bool {
	type vcKey struct{ r, p int }
	live := map[vcKey]bool{}
	occupied := map[vcKey]int{}
	for i, l := range s.Pkts {
		if l.Kind == LocAt {
			occupied[vcKey{int(l.Router), int(l.Port)}] = i
		}
	}
	for k, pi := range occupied {
		if s.frozen(k.r, k.p) || in.Packets[pi].Dst == k.r {
			live[k] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for k, pi := range occupied {
			if live[k] {
				continue
			}
			out := in.Route(k.r, in.Packets[pi].Dst)
			d, ok := in.Down(k.r, out)
			if !ok {
				continue
			}
			dk := vcKey{d.router, d.inPort}
			if _, occ := occupied[dk]; !occ || live[dk] {
				live[k] = true
				changed = true
			}
		}
	}
	for k := range occupied {
		if !live[k] {
			return true
		}
	}
	return false
}

// TestOracleMatchesMapFixpoint walks every state of every census run, and
// of the two mutations' runs, breadth first to the run's bound: the oracle
// agrees with the map fixpoint on each, and once grown allocates nothing
// per state. spin_unchecked's run reaches 4 253 states with two packets in
// one VC, where the fixpoint keys the VC by its last packet and the oracle
// by its occupant, the first.
func TestOracleMatchesMapFixpoint(t *testing.T) {
	runs := []struct {
		instance string
		bound    int
		mut      Mutation
	}{{"ring5", 14, MutNoProbe}, {"ring5", 22, MutSpinUnchecked}}
	for _, run := range censusRuns {
		runs = append(runs, struct {
			instance string
			bound    int
			mut      Mutation
		}{run.instance, run.bound, MutNone})
	}
	for _, run := range runs {
		in, err := NewInstance(run.instance, 0, run.mut)
		if err != nil {
			t.Fatal(err)
		}
		var o oracle
		seen := map[string]bool{}
		level := []*State{in.InitialState()}
		states, dead := 0, 0
		for depth := 0; len(level) > 0 && (run.bound == 0 || depth <= run.bound); depth++ {
			var next []*State
			for _, s := range level {
				enc := string(in.Encode(s))
				if seen[enc] {
					continue
				}
				seen[enc] = true
				states++
				got, want := o.deadlocked(in, s), referenceDeadlocked(in, s)
				if got != want {
					t.Fatalf("%s/%s depth %d: oracle says deadlocked=%v, the map fixpoint %v, in %+v", run.instance, run.mut, depth, got, want, s)
				}
				if got {
					dead++
				}
				if states%997 == 1 {
					if allocs := testing.AllocsPerRun(1, func() { o.deadlocked(in, s) }); allocs != 0 {
						t.Errorf("%s/%s: the oracle allocates %.0f objects per state", run.instance, run.mut, allocs)
					}
				}
				for _, sc := range in.Successors(s) {
					next = append(next, sc.State)
				}
			}
			level = next
		}
		if run.mut == MutNone && run.instance == "ring5" && dead == 0 {
			t.Errorf("%s: no deadlocked state: nothing was compared", run.instance)
		}
		t.Logf("%s/%s bound %d: %d states, %d deadlocked", run.instance, run.mut, run.bound, states, dead)
	}
}
