package sim

// Stats accumulates simulation measurements. Latency, hop and utilisation
// figures cover the measurement window (after Config.StatsStart);
// injection/ejection totals cover the whole run.
type Stats struct {
	Cycles         int64
	MeasuredCycles int64

	Injected, Ejected           int64 // packets
	InjectedFlits, EjectedFlits int64

	// Measurement-window packet metrics.
	EjectedMeasured  int64
	LatencySum       int64 // generation -> tail ejection
	NetLatencySum    int64 // head injection -> tail ejection
	HopSum           int64
	MisrouteSum      int64
	MaxLatency       int64
	EjectedFlitsMeas int64

	// Energy proxies (measurement window).
	BufferReads, BufferWrites      int64
	XbarTraversals, LinkTraversals int64

	// Scheme activity.
	Spins     int64
	SMSent    [numSMKinds]int64
	SMDropped int64
	// Counters carries scheme-specific counts (probes sent, false
	// positives, kill_moves, ...).
	Counters map[string]int64
}

// Count adds delta to the named scheme counter.
func (s *Stats) Count(name string, delta int64) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[name] += delta
}

// Counter reads a scheme counter.
func (s *Stats) Counter(name string) int64 { return s.Counters[name] }

// AvgLatency reports mean packet latency (cycles, source queueing
// included) over the measurement window.
func (s *Stats) AvgLatency() float64 {
	if s.EjectedMeasured == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.EjectedMeasured)
}

// AvgNetLatency reports mean network latency (injection to ejection).
func (s *Stats) AvgNetLatency() float64 {
	if s.EjectedMeasured == 0 {
		return 0
	}
	return float64(s.NetLatencySum) / float64(s.EjectedMeasured)
}

// AvgHops reports the mean hop count of measured packets.
func (s *Stats) AvgHops() float64 {
	if s.EjectedMeasured == 0 {
		return 0
	}
	return float64(s.HopSum) / float64(s.EjectedMeasured)
}

// Throughput reports accepted traffic in flits/terminal/cycle over the
// measurement window.
func (s *Stats) Throughput(terminals int) float64 {
	if s.MeasuredCycles == 0 || terminals == 0 {
		return 0
	}
	return float64(s.EjectedFlitsMeas) / float64(s.MeasuredCycles) / float64(terminals)
}

// LinkUtilisation summarises how link-cycles were spent over the
// measurement window, as fractions of links×cycles.
type LinkUtilisation struct {
	Flit  float64
	SM    [4]float64 // by SMKind
	SMAll float64
	Idle  float64
}
