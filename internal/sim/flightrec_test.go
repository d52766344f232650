package sim

import (
	"strings"
	"testing"
)

// TestEventRingCapacity: a ring holds exactly the capacity asked for;
// only a non-positive capacity is replaced by a default.
func TestEventRingCapacity(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 256}, {-5, 256}, {1, 1}, {4, 4}, {5, 5}, {1000, 1000},
	} {
		if got := NewEventRing(tc.in, AllEvents).Cap(); got != tc.want {
			t.Errorf("NewEventRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
	n, _ := vcFixture(t)
	if got := n.AttachFlightRecorder(0).Cap(); got != 1024 {
		t.Errorf("AttachFlightRecorder(0).Cap() = %d, want 1024", got)
	}
}

// TestEventRingWrap is the ring's unit table: whatever the capacity and
// however often it wrapped, Events is exactly the last Cap matching
// events oldest-first, Total also counts the overwritten ones, masked-out
// kinds leave no trace, and recording never allocates.
func TestEventRingWrap(t *testing.T) {
	for _, tc := range []struct{ capacity, events int }{
		{4, 0}, {4, 3}, {4, 4}, {4, 5}, {4, 8}, {4, 11}, {5, 7}, {1, 3}, {256, 1000},
	} {
		r := NewEventRing(tc.capacity, MaskOf(EvSMSend))
		for i := 1; i <= tc.events; i++ {
			r.Event(Event{Cycle: int64(i), Kind: EvSMSend})
			r.Event(Event{Cycle: int64(i), Kind: EvFlitInject}) // masked out
		}
		kept := min(tc.events, tc.capacity)
		evs := r.Events()
		if r.Total() != uint64(tc.events) || r.Len() != kept || len(evs) != kept {
			t.Errorf("cap %d after %d events: total %d len %d events %d, want %d/%d/%d",
				tc.capacity, tc.events, r.Total(), r.Len(), len(evs), tc.events, kept, kept)
			continue
		}
		for i, e := range evs {
			if want := int64(tc.events - kept + i + 1); e.Cycle != want || e.Kind != EvSMSend {
				t.Errorf("cap %d after %d events: slot %d holds %v@%d, want sm_send@%d",
					tc.capacity, tc.events, i, e.Kind, e.Cycle, want)
			}
		}
	}
	r := NewEventRing(8, SpinEvents)
	if a := testing.AllocsPerRun(100, func() {
		r.Event(Event{Kind: EvSpinStart})
		r.Event(Event{Kind: EvPacketQueued})
	}); a != 0 {
		t.Errorf("recording allocates %v times per call, want 0", a)
	}
}

func TestFlightRecorderFiltersAndWraps(t *testing.T) {
	n, _ := vcFixture(t)
	r := n.AttachFlightRecorder(4)
	// Flit-level kinds never enter the ring.
	r.Event(Event{Cycle: 0, Kind: EvFlitInject})
	r.Event(Event{Cycle: 0, Kind: EvPacketQueued})
	if r.Total() != 0 {
		t.Fatalf("non-SPIN events recorded: total %d", r.Total())
	}
	for i := int64(1); i <= 6; i++ {
		r.Event(Event{Cycle: i, Kind: EvSMSend, Router: int(i)})
	}
	if r.Total() != 6 {
		t.Fatalf("total %d, want 6", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(i + 3); e.Cycle != want {
			t.Fatalf("event %d cycle %d, want %d (oldest-first tail)", i, e.Cycle, want)
		}
	}
}

func TestFlightRecorderEventsBeforeWrap(t *testing.T) {
	r := NewEventRing(8, SpinEvents)
	r.Event(Event{Cycle: 1, Kind: EvSpinStart})
	r.Event(Event{Cycle: 2, Kind: EvSpinEnd})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("pre-wrap events %v, want cycles 1,2", evs)
	}
}

func TestCaptureForensicsSnapshotsVCChain(t *testing.T) {
	n, v := vcFixture(t)
	rec := n.AttachFlightRecorder(8)
	n.emit(Event{Cycle: 3, Kind: EvVCFreeze, Router: 1, Port: 2})
	n.emit(Event{Cycle: 4, Kind: EvFlitEject}) // filtered

	p := &Packet{ID: 42, Length: 1}
	v.enqueue(Flit{Pkt: p, Seq: 0}, 3)
	v.flags |= vcFrozen
	v.outPort = 1
	down := n.Router(0).VC(1, 1)
	down.flags |= vcSpinning
	v.target = down

	snap := n.CaptureForensics("test_rule")
	if snap == nil || n.FlightRecorder().Snapshot() != snap {
		t.Fatal("CaptureForensics did not install a snapshot")
	}
	if snap.Reason != "test_rule" || snap.Total != 1 || len(snap.Events) != 1 {
		t.Fatalf("snapshot reason=%q total=%d events=%d, want test_rule/1/1",
			snap.Reason, snap.Total, len(snap.Events))
	}
	if len(snap.SpinningVCs) != 2 {
		t.Fatalf("chain has %d VCs, want 2 (frozen VC + its grant target)", len(snap.SpinningVCs))
	}
	var frozen, spinning *VCForensics
	for i := range snap.SpinningVCs {
		f := &snap.SpinningVCs[i]
		if f.Frozen {
			frozen = f
		}
		if f.Spinning {
			spinning = f
		}
	}
	if frozen == nil || spinning == nil {
		t.Fatalf("chain %+v missing frozen or spinning entry", snap.SpinningVCs)
	}
	if frozen.Router != 1 || frozen.Port != 2 || frozen.VC != 0 || frozen.Packet != 42 {
		t.Errorf("frozen VC = %+v, want router 1 port 2 vc 0 packet 42", frozen)
	}
	if frozen.DownRouter != 0 || frozen.DownPort != 1 || frozen.DownVC != 1 {
		t.Errorf("frozen VC downstream = (%d,%d,%d), want (0,1,1)",
			frozen.DownRouter, frozen.DownPort, frozen.DownVC)
	}
	if spinning.DownRouter != -1 {
		t.Errorf("chain-tail VC downstream router %d, want -1", spinning.DownRouter)
	}

	// Only the first capture sticks.
	if again := n.CaptureForensics("other"); again != snap || again.Reason != "test_rule" {
		t.Fatal("second CaptureForensics replaced the first snapshot")
	}
	_ = rec
}

// TestAttachFlightRecorderPreservesProbe: observers, the flight recorder
// and the sampling layer are independent — attaching any of them, in any
// order, leaves the others listening.
func TestAttachFlightRecorderPreservesProbe(t *testing.T) {
	for _, order := range []string{"probe,flight,tele", "tele,flight,probe", "flight,tele,probe"} {
		n, _ := vcFixture(t)
		var probed int
		for _, what := range strings.Split(order, ",") {
			switch what {
			case "probe":
				n.AddObserver(AllEvents, ProbeFunc(func(Event) { probed++ }))
			case "flight":
				n.AttachFlightRecorder(8)
			case "tele":
				n.AttachTelemetry(TelemetryOptions{Hist: true})
			}
		}
		if !n.wants(EvSMSend) || !n.wants(EvFlitEject) {
			t.Fatalf("%s: union mask lost a listener's kinds", order)
		}
		n.emit(Event{Kind: EvSMSend})
		n.emit(Event{Kind: EvFlitEject})
		if probed != 2 {
			t.Errorf("%s: probe saw %d events, want 2", order, probed)
		}
		if n.FlightRecorder() == nil || n.FlightRecorder().Total() != 1 {
			t.Errorf("%s: flight recorder missing or saw != 1 event", order)
		}
		if n.Telemetry() == nil || n.Telemetry().Latency() == nil {
			t.Errorf("%s: sampling layer missing", order)
		}
	}
}

func TestCaptureForensicsWithoutRecorderIsNil(t *testing.T) {
	n, _ := vcFixture(t)
	if snap := n.CaptureForensics("x"); snap != nil {
		t.Fatalf("capture without recorder returned %+v", snap)
	}
}
