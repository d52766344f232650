package sim_test

import (
	"reflect"
	"testing"

	spin "repro"
	"repro/internal/sim"
)

// spineRun is the saturated 1-VC SPIN mesh the event-spine tests drive:
// deadlocks form, so every event kind but the checker's fires.
func spineRun(t *testing.T) *spin.Simulation {
	t.Helper()
	s, err := spin.New(spin.Config{
		Topology:   "mesh:8x8",
		Routing:    "favors_min",
		Scheme:     "spin",
		Traffic:    "uniform_random",
		Rate:       0.40,
		VCsPerVNet: 1,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// collect is an unbounded all-purpose probe.
type collect []sim.Event

func (c *collect) Event(e sim.Event) { *c = append(*c, e) }

// filtered returns the subsequence of evs (from cycle on) mask selects.
func filtered(evs []sim.Event, mask sim.KindMask, from int64) []sim.Event {
	var out []sim.Event
	for _, e := range evs {
		if mask.Has(e.Kind) && e.Cycle >= from {
			out = append(out, e)
		}
	}
	return out
}

// TestMaskedObserverSeesFilteredSubsequence: in one run, every masked
// observer hears exactly the subsequence of an all-kinds observer its
// mask selects, in the same order — also for an observer that joins
// mid-run, when the union mask grows.
func TestMaskedObserverSeesFilteredSubsequence(t *testing.T) {
	s := spineRun(t)
	net := s.Network()
	var spinOnly, all, late, lateFlits collect
	flits := sim.MaskOf(sim.EvFlitInject, sim.EvFlitEject)
	net.AddObserver(sim.SpinEvents, &spinOnly)
	net.AddObserver(sim.AllEvents, &all)
	checker := net.AttachChecker(sim.CheckOptions{RecoveryBound: 1 << 30})
	s.Run(300)
	joined := net.Now()
	net.AddObserver(sim.DefaultMask, &late)
	net.AddObserver(flits, &lateFlits)
	s.Run(1200)

	if len(spinOnly) == 0 || len(late) == 0 || len(lateFlits) == 0 {
		t.Fatalf("an observer heard nothing (%d/%d/%d events); the test exercised nothing",
			len(spinOnly), len(late), len(lateFlits))
	}
	for _, tc := range []struct {
		name string
		got  collect
		mask sim.KindMask
		from int64
	}{
		{"spin-only", spinOnly, sim.SpinEvents, 0},
		{"late default-mask", late, sim.DefaultMask, joined},
		{"late flits", lateFlits, flits, joined},
	} {
		if want := filtered(all, tc.mask, tc.from); !reflect.DeepEqual([]sim.Event(tc.got), want) {
			t.Errorf("%s observer heard %d events, the all-kinds observer's filtered view has %d (or order differs)",
				tc.name, len(tc.got), len(want))
		}
	}
	// The checker's own count is the event stream's count.
	if got, want := checker.OracleFirings(), int64(len(filtered(all, sim.MaskOf(sim.EvOracleDeadlock), 0))); got != want || got == 0 {
		t.Errorf("checker counted %d oracle firings, observers heard %d (want equal, > 0)", got, want)
	}
}

// TestAttachOrderKeepsRings is the attach-order regression: the flight
// recorder and the sampling layer are independent, so attaching them in
// either order retains identical ring contents — attaching one must never
// discard the other.
func TestAttachOrderKeepsRings(t *testing.T) {
	run := func(flightFirst bool) []sim.Event {
		s := spineRun(t)
		net := s.Network()
		if flightFirst {
			net.AttachFlightRecorder(512)
			net.AttachTelemetry(sim.TelemetryOptions{Hist: true, Window: 100})
		} else {
			net.AttachTelemetry(sim.TelemetryOptions{Hist: true, Window: 100})
			net.AttachFlightRecorder(512)
		}
		s.Run(2000)
		if net.FlightRecorder() == nil {
			t.Fatalf("flightFirst=%v: the flight recorder is gone", flightFirst)
		}
		if net.Telemetry() == nil || net.Telemetry().Latency().Count() == 0 {
			t.Fatalf("flightFirst=%v: the sampling layer is gone or observed nothing", flightFirst)
		}
		return net.FlightRecorder().Events()
	}
	a, b := run(true), run(false)
	if len(a) != 512 {
		t.Fatalf("ring retained %d events, want a full ring of 512", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("ring contents depend on the attach order")
	}
}

// kindCounter counts what reaches a probe, per kind.
type kindCounter [64]int

func (c *kindCounter) Event(e sim.Event) { c[e.Kind]++ }

// TestNoEventBuiltOutsideUnionMask: an emission site must not construct
// an Event nobody listens for. ObserveBuilt hears everything that gets
// built without asking for anything, so beside a checked run's observer
// set alone (flight recorder + DefaultMask tail) it must count zero flit
// events although flits moved.
func TestNoEventBuiltOutsideUnionMask(t *testing.T) {
	s := spineRun(t)
	net := s.Network()
	net.AttachFlightRecorder(1024)
	tail := sim.NewEventRing(256, sim.DefaultMask)
	net.AddObserver(tail.Mask(), tail)
	var built kindCounter
	net.ObserveBuilt(&built)
	s.Run(1000)
	if built[sim.EvSMSend] == 0 || built[sim.EvPacketEject] == 0 || net.Stats().EjectedFlits == 0 {
		t.Fatal("no SPIN/packet events built or no flit moved; the test exercised nothing")
	}
	if flits := built[sim.EvFlitInject] + built[sim.EvFlitEject]; flits != 0 {
		t.Errorf("%d flit events built with no listener for them", flits)
	}
}
