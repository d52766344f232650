package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are nanoseconds since the recorder's epoch; ID is the
// span's position in its recorder and Parent the ID of the span that
// caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder is the benchmark's in-memory span recorder. It records from
// the benchmark's own files only — nothing inside the program under test
// knows about it. A nil *recorder records nothing, so the untraced and
// traced passes run the same code. It is not safe for concurrent use:
// each load-generating goroutine owns one and they are merged at write
// time.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: int64(time.Since(r.epoch)), Parent: parent})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval was measured elsewhere (a runner job
// reported through Options.Progress).
func (r *recorder) add(name string, start, end time.Time, parent int) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: parent})
}

// childCover is the share of span id's interval that its direct children
// cover (children of one parent never overlap here: each recorder is
// single-goroutine and jobs are excluded by the caller).
func (r *recorder) childCover(id int) float64 {
	var sum int64
	for i := id + 1; i < len(r.spans); i++ {
		if r.spans[i].Parent == id {
			sum += r.spans[i].End - r.spans[i].Start
		}
	}
	if d := r.spans[id].End - r.spans[id].Start; d > 0 {
		return float64(sum) / float64(d)
	}
	return 0
}

// traceFile is the schema of out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Recorded counts every span taken; Spans may hold fewer (see Thinned).
	Recorded int `json:"recorded"`
	// Thinned names the span that was written 1-in-N, when there is one.
	Thinned string `json:"thinned,omitempty"`
	ThinN   int    `json:"thin_n,omitempty"`
	// Clients holds one span list per load-generating goroutine; IDs
	// and Parents are local to a list.
	Clients [][]span `json:"clients"`
}

// writeTrace writes the recorders' spans to dir/trace-<workload>.json.
// Spans named thin are written 1-in-thinN (the serve workload records
// several hundred thousand hit spans; the file keeps a sample of them and
// every other span).
func writeTrace(dir, workload string, seed int64, thin string, thinN int, recs ...*recorder) error {
	tf := traceFile{Workload: workload, Seed: seed, Thinned: thin, ThinN: thinN}
	for _, r := range recs {
		var out []span
		seen := 0
		for _, s := range r.spans {
			if thin != "" && s.Name == thin {
				seen++
				if seen%thinN != 0 {
					continue
				}
			}
			out = append(out, s)
		}
		tf.Recorded += len(r.spans)
		tf.Clients = append(tf.Clients, out)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
