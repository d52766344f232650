package harness

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Result is the outcome of one driven scenario execution.
type Result struct {
	Scenario   Scenario        `json:"scenario"`
	Violations []sim.Violation `json:"violations,omitempty"`
	// Drained reports whether every packet left the network within the
	// drain budget — the end-to-end liveness verdict. It is false only
	// when a requested drain fell short.
	Drained bool `json:"drained"`
	// Injected, Ejected and Spins are the final counters, after any drain.
	Injected int64 `json:"injected"`
	Ejected  int64 `json:"ejected"`
	Spins    int64 `json:"spins"`
	// Stats is the counter snapshot at the end of the traffic phase,
	// before any drain — the numbers serving and reporting paths print.
	Stats sim.Stats `json:"-"`
	// Latency (with Observe.Hist) and TimeSeries (with Observe.Window)
	// cover the whole observed run, drain included.
	Latency    *sim.LatencySummary `json:"-"`
	TimeSeries *sim.TimeSeries     `json:"-"`
	// OracleFirings counts deadlock-oracle events (checked runs only).
	OracleFirings int64 `json:"-"`
	// MaxDeadlockSpell is the longest continuous interval any VC spent
	// in the global oracle's deadlocked set — the run's empirical
	// recovery bound.
	MaxDeadlockSpell int64 `json:"max_deadlock_spell,omitempty"`
	// Delivered maps packet ID to its delivery tuple, in a form the
	// differential oracle can compare across configurations (filled by
	// RunDifferential only).
	Delivered []Delivery `json:"-"`
	// Trace is the tail of the run's telemetry event stream (flit-level
	// events excluded), embedded in failure artifacts so a triager sees
	// what the network was doing when the invariant broke.
	Trace []sim.Event `json:"-"`
	// Forensics is the flight recorder's first-failure snapshot (SPIN
	// event ring + frozen/spinning-VC chain), nil on clean runs. It is the
	// failure artifact's snapshot (see ReportFailure).
	Forensics *sim.ForensicsSnapshot `json:"-"`
}

// TraceTail is how many trailing telemetry events a checked run retains
// for its failure artifact.
const TraceTail = 256

// Delivery identifies one delivered packet, indexed by injection order
// (packet IDs are assigned sequentially at injection).
type Delivery struct {
	ID     uint64
	Src    int
	Dst    int
	Length int
	VNet   int
}

// Failed reports whether the run violated any invariant, including the
// drain liveness check.
func (r *Result) Failed() bool { return len(r.Violations) > 0 || !r.Drained }

// Summary is a one-line verdict for logs and artifacts.
func (r *Result) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("ok: %d packets, %d spins, max deadlock spell %d", r.Ejected, r.Spins, r.MaxDeadlockSpell)
	}
	s := fmt.Sprintf("%d violation(s)", len(r.Violations))
	if !r.Drained {
		s += fmt.Sprintf(", drain incomplete (%d injected, %d ejected)", r.Injected, r.Ejected)
	}
	if len(r.Violations) > 0 {
		s += ": " + r.Violations[0].String()
	}
	return s
}

// Observe is what one caller wants watched during a run; each field
// mirrors a knob the entry points already carry (request fields, sweep
// options, CLI flags).
type Observe struct {
	// Check attaches the invariant checker, the flight recorder and the
	// event tail failure artifacts embed.
	Check bool
	// Drain follows the traffic phase with a drain of at most
	// Scenario.DrainCycles (0 = 250x Cycles).
	Drain bool
	// Hist enables the latency histogram, Window (> 0) the time-series
	// sampler at that width.
	Hist   bool
	Window int64
	// OnWindow runs after each Window-sized chunk of the traffic phase
	// (one whole-run chunk when Window is 0) with the cycles stepped so
	// far and the windows closed since the last call. The final call
	// (done == Scenario.Cycles) precedes the drain: the place to read
	// instantaneous state a drain would erase.
	OnWindow func(done int64, closed []sim.WindowSample)
	// Events is the caller's ring for the run's event stream; checked
	// runs without one get a TraceTail-sized ring of DefaultMask events.
	Events *sim.EventRing
}

// Run executes the scenario with the invariant checker attached: the
// traffic phase, then a full drain. Any checker violation, plus a drain
// failure, lands in the result. The run is deterministic in the
// scenario's seed.
func Run(sc Scenario) (*Result, error) {
	s, err := sc.Sim()
	if err != nil {
		return nil, err
	}
	return Drive(context.Background(), sc, s.Network(), Observe{Check: true, Drain: true})
}

// Drive is the one run driver: every observed simulation — harness
// corpus, spind request, sweep point, spinsim run — goes through this
// attach → step → drain → collect path. net is a built network whose
// traffic source the caller may already have wrapped (recording); sc
// gives the run length, the checker bounds and the name on failure
// artifacts. Chunked stepping is state-for-state identical to
// one Run call and observers only read, so what is watched never changes
// what is simulated.
func Drive(ctx context.Context, sc Scenario, net *sim.Network, o Observe) (*Result, error) {
	res := &Result{Scenario: sc, Drained: true}
	tail := o.Events
	var checker *sim.InvariantChecker
	if o.Check {
		checker = net.AttachChecker(sc.CheckOptions(net.NumRouters()))
		net.AttachFlightRecorder(0)
		if tail == nil {
			tail = sim.NewEventRing(TraceTail, sim.DefaultMask)
		}
	}
	if tail != nil {
		net.AddObserver(tail.Mask(), tail)
	}
	var tele *sim.Telemetry
	if o.Hist || o.Window > 0 {
		tele = net.AttachTelemetry(sim.TelemetryOptions{Hist: o.Hist, Window: o.Window})
	}

	step := sc.Cycles
	if o.OnWindow != nil && o.Window > 0 {
		step = o.Window
	}
	for done, seen := int64(0), 0; done < sc.Cycles; {
		chunk := min(step, sc.Cycles-done)
		if err := runner.Cycles(ctx, net.Run, chunk); err != nil {
			return nil, err
		}
		done += chunk
		if o.OnWindow != nil {
			var closed []sim.WindowSample
			if o.Window > 0 {
				closed = tele.TimeSeries().Samples[seen:]
				seen += len(closed)
			}
			o.OnWindow(done, closed)
		}
	}
	if sr, ok := net.Config().Traffic.(*traffic.StreamReplay); ok {
		// A corrupt chunk, or an entry the network cannot host, stops the
		// stream; the truncated run must not pass for a result.
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("harness: trace stream: %w", err)
		}
	}
	res.Stats = *net.Stats()
	if o.Drain {
		// The drain keeps counting; the snapshot must not follow it.
		res.Stats.Counters = maps.Clone(res.Stats.Counters)
		res.Drained = net.Drain(drainBudget(sc))
	}
	if checker != nil {
		res.Violations = append(checker.Violations(), windowViolations(net, o.Drain && res.Drained)...)
		res.MaxDeadlockSpell = checker.MaxDeadlockSpell()
		res.OracleFirings = checker.OracleFirings()
		res.Trace = tail.Events()
		res.Trace = res.Trace[max(0, len(res.Trace)-TraceTail):]
		// The checker snapshots the flight recorder at its first
		// violation; an incomplete drain is a liveness failure it never
		// sees, so capture here (no-op when a snapshot already exists).
		if !res.Drained {
			net.CaptureForensics("drain_incomplete")
		}
		res.Forensics = net.FlightRecorder().Snapshot()
	}
	if tele != nil {
		tele.Flush()
		if o.Hist {
			sum := tele.LatencySummary()
			res.Latency = &sum
		}
		res.TimeSeries = tele.TimeSeries()
	}
	st := net.Stats()
	res.Injected, res.Ejected, res.Spins = st.Injected, st.Ejected, st.Spins
	return res, nil
}

// windowViolations audits a closed-loop source after the run: every
// request the loop issued must have been retired by its reply once the
// network drained, and the window books must balance.
func windowViolations(net *sim.Network, drained bool) []sim.Violation {
	wt, ok := net.Config().Traffic.(sim.WindowedTraffic)
	if !ok {
		return nil
	}
	var vs []sim.Violation
	add := func(detail string) {
		vs = append(vs, sim.Violation{Rule: sim.RuleWindow, Cycle: net.Now(), Detail: detail})
	}
	if left := wt.InWindow(); drained && left != 0 {
		add(fmt.Sprintf("drain completed with %d requests still in window", left))
	}
	if err := wt.AuditWindows(); err != nil {
		add(err.Error())
	}
	return vs
}
