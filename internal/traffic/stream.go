package traffic

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// StreamReplay is the replay engine: it injects an exact workload,
// pulled from an EntrySource, at its recorded cycles. Every terminal
// sleeps until the cycle of the next entry not yet pumped, so at that
// cycle all of them take a turn: the first to do so pumps the entries that
// have come due into per-source queues (pump, the only reader of the
// source), and each drains only its own source's queue.
//
// Over a *TraceReader, memory is bounded by one decoder chunk plus the
// entries due in the current cycle, independent of trace length.
type StreamReplay struct {
	src EntrySource

	// The network's own bounds; an entry outside them poisons the replay
	// with a descriptive error instead of panicking inside the injector.
	terminals int
	vnets     int

	queues    [][]TraceEntry // entries due this cycle, per source
	next      TraceEntry     // lookahead: first entry not yet due
	nextValid bool
	eof       bool
	err       error
	pumped    int64
}

// NewStreamReplay replays src into the network cfg describes (a built
// network's Config, defaults resolved). An in-memory source is checked
// whole, so an entry the network cannot host is an error before the
// first cycle; a stream is checked entry by entry as it is read (see
// Err).
func NewStreamReplay(src EntrySource, cfg sim.Config) (*StreamReplay, error) {
	terminals := cfg.Topology.NumTerminals()
	s := &StreamReplay{src: src, terminals: terminals, vnets: cfg.VNets, queues: make([][]TraceEntry, terminals)}
	if l, ok := src.(*sliceSource); ok {
		for i, e := range l.entries {
			if err := s.check(int64(i), e); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// check is the one entry-vs-network bounds rule; i is the entry's
// position in replay order.
func (s *StreamReplay) check(i int64, e TraceEntry) error {
	switch {
	case e.Cycle < 0:
		return fmt.Errorf("traffic: trace entry %d: negative cycle %d", i, e.Cycle)
	case e.Src < 0 || e.Src >= s.terminals:
		return fmt.Errorf("traffic: trace entry %d: src %d outside [0,%d)", i, e.Src, s.terminals)
	case e.Dst < 0 || e.Dst >= s.terminals:
		return fmt.Errorf("traffic: trace entry %d: dst %d outside [0,%d)", i, e.Dst, s.terminals)
	case e.Src == e.Dst:
		return fmt.Errorf("traffic: trace entry %d: self-destined packet at node %d", i, e.Src)
	case e.Length <= 0 || e.Length > sim.MaxPktLen:
		return fmt.Errorf("traffic: trace entry %d: length %d outside (0,%d]", i, e.Length, sim.MaxPktLen)
	case e.VNet < 0 || e.VNet >= s.vnets:
		return fmt.Errorf("traffic: trace entry %d: vnet %d outside [0,%d)", i, e.VNet, s.vnets)
	}
	return nil
}

// pump advances the source up to cycle now, queueing every entry that has
// come due. Within a cycle only its first call reads: the lookahead it
// leaves is past now.
func (s *StreamReplay) pump(now int64) {
	if s.err != nil {
		return
	}
	for {
		if !s.nextValid {
			if s.eof {
				return
			}
			e, err := s.src.Next()
			if err == nil {
				err = s.check(s.pumped, e)
			}
			if err != nil {
				if err != io.EOF {
					s.err = err
				}
				s.eof = true
				return
			}
			s.next = e
			s.nextValid = true
		}
		if s.next.Cycle > now {
			return
		}
		s.queues[s.next.Src] = append(s.queues[s.next.Src], s.next)
		s.nextValid = false
		s.pumped++
	}
}

// Generate implements sim.TrafficGen: pump the entries due by now, then
// drain this source's queue. Each queue is filled by pump and emptied
// here, so steady-state replay does not allocate. A terminal sleeps until
// the cycle of the next entry not yet pumped, whichever terminal it is for:
// until then no queue can fill.
func (s *StreamReplay) Generate(now, _ int64, src int, _ *sim.Stream, emit func(sim.PacketSpec)) int64 {
	s.pump(now)
	if q := s.queues[src]; len(q) > 0 {
		for _, e := range q {
			emit(sim.PacketSpec{Dst: e.Dst, Length: e.Length, VNet: e.VNet})
		}
		s.queues[src] = q[:0]
	}
	if !s.nextValid {
		return sim.Never // the source is exhausted
	}
	return s.next.Cycle
}

// Err reports the first decode or bounds failure; replay halts at the
// failing entry rather than injecting garbage.
func (s *StreamReplay) Err() error { return s.err }

// Pumped reports how many entries have been queued for injection.
func (s *StreamReplay) Pumped() int64 { return s.pumped }
