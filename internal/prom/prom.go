// Package prom is a dependency-free Prometheus text-exposition registry:
// counters, gauges, and histograms with optional label pairs, rendered
// in the version 0.0.4 text format that every Prometheus scraper
// understands. The official client library would drag in a dependency
// tree the container does not have; the daemon needs exactly the subset
// implemented here. It is its own package so that the instruments, their
// labelling and the text format are tested apart from the daemon, and one
// function, header, writes every # HELP line.
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the scrape content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry holds instruments in registration order, the order they
// render in.
type Registry struct {
	mu    sync.Mutex
	insts []renderable
}

type renderable interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(i renderable) {
	r.mu.Lock()
	r.insts = append(r.insts, i)
	r.mu.Unlock()
}

// Render writes every registered instrument's exposition text.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	insts := append([]renderable(nil), r.insts...)
	r.mu.Unlock()
	for _, i := range insts {
		i.render(w)
	}
}

// header writes the # HELP / # TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders a sample value the way Prometheus expects. Values
// that are exactly integral render without an exponent (1e6 as
// "1000000", not "1e+06") so large counts round-trip through scrapers
// and diff cleanly; 2^53 is the largest magnitude where float64 still
// holds every integer exactly.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escaper applies the 0.0.4 text format's label-value escapes: backslash,
// double quote, newline. Any other valid UTF-8 (tabs, controls) is legal.
var escaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labels renders {k="v",...} from alternating keys and values, in the
// order given ("" for none) — the one place label strings are rendered. A
// value may come from outside the code (a build's module version or VCS
// commit), so invalid UTF-8 becomes U+FFFD: it must not lose a scraper the
// page.
func Labels(kv ...string) string {
	if len(kv) < 2 {
		return ""
	}
	s := "{"
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			s += ","
		}
		s += kv[i] + `="` + escaper.Replace(strings.ToValidUTF8(kv[i+1], "\uFFFD")) + `"`
	}
	return s + "}"
}

// sortedLabels is Labels with the pairs ordered by key: the identity of a
// series, whatever order its binder named the labels in.
func sortedLabels(kv []string) string {
	kv = append([]string(nil), kv[:len(kv)&^1]...)
	for i := 2; i < len(kv); i += 2 { // insertion sort: a series has one to three labels
		for j := i; j > 0 && kv[j] < kv[j-2]; j -= 2 {
			kv[j], kv[j-2] = kv[j-2], kv[j]
			kv[j+1], kv[j-1] = kv[j-1], kv[j+1]
		}
	}
	return Labels(kv...)
}

// addFloat adds delta to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// family is what Counter and Histogram share: a name and the series bound
// so far, by rendered label string.
type family struct {
	name, help string
	buckets    []float64 // a histogram's upper bounds, ascending, +Inf implied
	mu         sync.Mutex
	series     map[string]*series
}

// series is one label set's values: a counter's value or a histogram's sum,
// and a histogram's count per bucket, +Inf overflow last (a counter's one
// slot stays zero).
type series struct {
	labels  string
	sum     atomic.Uint64 // float64 bits
	buckets []float64
	counts  []atomic.Uint64
}

func (f *family) newSeries(labels string) *series {
	return &series{labels: labels, buckets: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
}

// bind returns the series kv names, making it on first sight.
func (f *family) bind(kv []string) *series {
	ls := sortedLabels(kv)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[ls]
	if s == nil {
		s = f.newSeries(ls)
		f.series[ls] = s
	}
	return s
}

// count is the series' sample count: the sum of its buckets, so a scrape's
// _count always equals its +Inf bucket.
func (s *series) count() (n uint64) {
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return n
}

// live lists, in label order, the series that have been updated (one bound
// ahead of its first sample stays out of the exposition) or, when there is
// none, one unlabeled zero series — for a histogram every bucket including
// +Inf — so scrapers see the metric exists and rate() works from the first
// sample. The lock covers the map only: values are atomics and the caller
// writes to the scraper without it, so a slow scrape blocks no update.
func (f *family) live() (out []*series) {
	f.mu.Lock()
	for _, s := range f.series {
		if s.sum.Load() != 0 || s.count() > 0 {
			out = append(out, s)
		}
	}
	f.mu.Unlock()
	if out == nil {
		return []*series{f.newSeries("")}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// Counter is a monotonically increasing sample set, one series per
// label combination.
type Counter struct{ family }

// CounterSeries is one series of a Counter. With binds it once; an update
// is then an atomic add, with no label string built and no lock taken.
type CounterSeries series

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{family{name: name, help: help, series: map[string]*series{}}}
	r.add(c)
	return c
}

// With returns the series selected by alternating label keys and values
// (any order; none: the unlabeled series). Request paths bind once.
func (c *Counter) With(kv ...string) *CounterSeries { return (*CounterSeries)(c.bind(kv)) }

// Add increments the unlabeled series.
func (c *Counter) Add(delta float64) { c.With().Add(delta) }

// Add increments the series.
func (s *CounterSeries) Add(delta float64) { addFloat(&s.sum, delta) }

// Value reads the series.
func (s *CounterSeries) Value() float64 { return math.Float64frombits(s.sum.Load()) }

func (c *Counter) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	for _, s := range c.live() {
		fmt.Fprintf(w, "%s%s %s\n", c.name, s.labels, formatValue((*CounterSeries)(s).Value()))
	}
}

// Gauge is a settable value.
type Gauge struct{ bits atomic.Uint64 }

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, func() float64 { return math.Float64frombits(g.bits.Load()) })
	return g
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Sample is one series of a sampled instrument: a rendered label string
// (see Labels; "" for the unlabeled series) and its value.
type Sample struct {
	Labels string
	Value  float64
}

// sampled is an instrument whose series are owned elsewhere (the cache
// store's hit counters, queue depth, the build identity): fn samples
// the whole set at scrape time and it renders in the order fn returns it.
type sampled struct {
	name, help, typ string
	fn              func() []Sample
}

// one adapts a scalar sampler to the unlabeled series.
func one(fn func() float64) func() []Sample {
	return func() []Sample { return []Sample{{Value: fn()}} }
}

// CounterFunc registers an unlabeled counter sampled by fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&sampled{name, help, "counter", one(fn)})
}

// GaugeFunc registers an unlabeled gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&sampled{name, help, "gauge", one(fn)})
}

// GaugeSetFunc registers a labelled gauge sampled by fn at scrape time.
func (r *Registry) GaugeSetFunc(name, help string, fn func() []Sample) {
	r.add(&sampled{name, help, "gauge", fn})
}

func (g *sampled) render(w io.Writer) {
	header(w, g.name, g.help, g.typ)
	for _, s := range g.fn() {
		fmt.Fprintf(w, "%s%s %s\n", g.name, s.Labels, formatValue(s.Value))
	}
}

// Histogram is a cumulative-bucket histogram, one series set per label
// combination.
type Histogram struct{ family }

// HistogramSeries is one series set of a Histogram, bound once by With.
type HistogramSeries series

// Histogram registers and returns a histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{family{name: name, help: help, buckets: buckets, series: map[string]*series{}}}
	r.add(h)
	return h
}

// With returns the series set selected by label pairs (see Counter.With).
func (h *Histogram) With(kv ...string) *HistogramSeries { return (*HistogramSeries)(h.bind(kv)) }

// Observe records a sample into the unlabeled series.
func (h *Histogram) Observe(v float64) { h.With().Observe(v) }

// Observe records a sample.
func (s *HistogramSeries) Observe(v float64) {
	s.counts[sort.SearchFloat64s(s.buckets, v)].Add(1) // first bucket with bound >= v
	addFloat(&s.sum, v)
}

// Count reads the series' sample count.
func (s *HistogramSeries) Count() uint64 { return (*series)(s).count() }

func (h *Histogram) render(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	for _, s := range h.live() {
		cum := uint64(0)
		for i, bound := range h.buckets {
			cum += s.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, withLE(s.labels, formatValue(bound)), cum)
		}
		cum += s.counts[len(h.buckets)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, withLE(s.labels, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", h.name, s.labels, formatValue(math.Float64frombits(s.sum.Load())))
		fmt.Fprintf(w, "%s_count%s %d\n", h.name, s.labels, cum)
	}
}

// withLE splices the le label into a rendered label string.
func withLE(rendered, le string) string {
	if rendered == "" {
		return `{le="` + le + `"}`
	}
	return rendered[:len(rendered)-1] + `,le="` + le + `"}`
}
