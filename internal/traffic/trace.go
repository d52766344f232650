package traffic

import (
	"io"
	"sort"

	"repro/internal/sim"
)

// TraceEntry is one packet injection of an exact workload: what a
// scenario's injections list, a recording and a spintrace-v1 stream all
// hold. Exact workloads make experiments repeatable across
// configurations: the same injection sequence can drive a west-first
// baseline and a SPIN configuration, removing generator noise from
// comparisons.
type TraceEntry struct {
	Cycle  int64 `json:"cycle"`
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Length int   `json:"length"`
	VNet   int   `json:"vnet"`
}

// EntrySource feeds StreamReplay: Next yields entries in nondecreasing
// cycle order and io.EOF after the last one. *TraceReader is the
// streaming source; SliceSource is the in-memory one.
type EntrySource interface {
	Next() (TraceEntry, error)
}

// sliceSource is an in-memory EntrySource.
type sliceSource struct {
	entries []TraceEntry
	pos     int
}

// SliceSource serves an in-memory entry list. A list that is not
// time-ordered keeps each source's listed order: an entry never
// overtakes one listed before it for the same source, so its effective
// cycle is the running maximum over that source's earlier entries, and
// the list is replayed in stable order of that. (Cross-source order
// inside a cycle is immaterial: packet IDs are per-terminal sequences.)
// entries is never modified.
func SliceSource(entries []TraceEntry) EntrySource {
	byCycle := func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle }
	if !sort.SliceIsSorted(entries, byCycle) {
		entries = append([]TraceEntry(nil), entries...)
		latest := map[int]int64{}
		for i := range entries {
			e := &entries[i]
			e.Cycle = max(e.Cycle, latest[e.Src])
			latest[e.Src] = e.Cycle
		}
		sort.SliceStable(entries, byCycle)
	}
	return &sliceSource{entries: entries}
}

// Next implements EntrySource.
func (s *sliceSource) Next() (TraceEntry, error) {
	if s.pos == len(s.entries) {
		return TraceEntry{}, io.EOF
	}
	s.pos++
	return s.entries[s.pos-1], nil
}

// Recorder is a sim.Probe that captures a network's workload: one entry
// per packet_queued event, in the order the engine queues packets
// (terminals ascending within a cycle), so the list replays the same
// workload. Register it for sim.MaskOf(sim.EvPacketQueued).
type Recorder struct {
	Entries []TraceEntry
}

// Event implements sim.Probe.
func (rec *Recorder) Event(e sim.Event) {
	if e.Kind == sim.EvPacketQueued {
		rec.Entries = append(rec.Entries, TraceEntry{Cycle: e.Cycle, Src: e.Src, Dst: e.Dst, Length: e.Len, VNet: e.VNet})
	}
}
