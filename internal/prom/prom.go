// Package prom is a dependency-free Prometheus text-exposition registry:
// counters, gauges, and histograms with optional label pairs, rendered
// in the version 0.0.4 text format that every Prometheus scraper
// understands. The official client library would drag in a dependency
// tree the container does not have; the daemon needs exactly the subset
// implemented here. It is its own package so that internal/serve and
// internal/fleet (which serve imports) register their series with the
// same instruments, and one function, header, writes every # HELP line.
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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

// labelString renders {k="v",...} with sorted keys ("" for no labels).
// It runs on every labelled Add/Observe, so it builds the string
// directly instead of going through Labels.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + strconv.Quote(labels[k])
	}
	return s + "}"
}

// Labels renders {k="v",...} from alternating keys and values, in the
// order given — for series whose label order is part of their pinned
// exposition (GaugeSetFunc samples).
func Labels(kv ...string) string {
	s := "{"
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			s += ","
		}
		s += kv[i] + "=" + strconv.Quote(kv[i+1])
	}
	return s + "}"
}

// collector splices another renderer's exposition text in at this point
// of the render order.
type collector func(io.Writer)

// Collector registers fn, which renders a block of series registered
// elsewhere — in practice another Registry's Render (the serving layer
// mounts the fleet's series this way).
func (r *Registry) Collector(fn func(io.Writer)) { r.add(collector(fn)) }

func (c collector) render(w io.Writer) { c(w) }

// Counter is a monotonically increasing sample set, one series per
// label combination.
type Counter struct {
	name, help string
	mu         sync.Mutex
	series     map[string]float64 // rendered label string -> value
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help, series: map[string]float64{}}
	r.add(c)
	return c
}

// Add increments the unlabeled series.
func (c *Counter) Add(delta float64) { c.AddL(nil, delta) }

// AddL increments the series selected by labels.
func (c *Counter) AddL(labels map[string]string, delta float64) {
	ls := labelString(labels)
	c.mu.Lock()
	c.series[ls] += delta
	c.mu.Unlock()
}

// Value reads one series (tests and internal checks).
func (c *Counter) Value(labels map[string]string) float64 {
	ls := labelString(labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series[ls]
}

// Total sums every series of the counter (the fleet's admin view reports
// its per-peer counters as totals).
func (c *Counter) Total() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t float64
	for _, v := range c.series {
		t += v
	}
	return t
}

func (c *Counter) render(w io.Writer) {
	c.mu.Lock()
	header(w, c.name, c.help, "counter")
	for _, k := range seriesKeys(c.series) {
		fmt.Fprintf(w, "%s%s %s\n", c.name, k, formatValue(c.series[k]))
	}
	c.mu.Unlock()
}

// seriesKeys lists a series map's label strings in render order. An
// instrument nobody has touched still renders its complete unlabeled
// series at zero — for a histogram every bucket including +Inf — so
// scrapers see the metric exists and rate() works from the first sample.
// The zero series is render-only: once real (possibly labeled)
// observations arrive, it disappears.
func seriesKeys[V any](series map[string]V) []string {
	keys := make([]string, 0, len(series)+1)
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		keys = append(keys, "")
	}
	return keys
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
// store's hit counters, queue depth, fleet members by state): fn samples
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
type Histogram struct {
	name, help string
	buckets    []float64 // upper bounds, ascending, +Inf implied
	mu         sync.Mutex
	series     map[string]*histSeries
}

type histSeries struct {
	counts []uint64 // one per bucket, plus the +Inf overflow at the end
	sum    float64
	count  uint64
}

// Histogram registers and returns a histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{name: name, help: help, buckets: buckets, series: map[string]*histSeries{}}
	r.add(h)
	return h
}

// Observe records a sample into the unlabeled series.
func (h *Histogram) Observe(v float64) { h.ObserveL(nil, v) }

// ObserveL records a sample into the series selected by labels.
func (h *Histogram) ObserveL(labels map[string]string, v float64) {
	ls := labelString(labels)
	h.mu.Lock()
	s := h.series[ls]
	if s == nil {
		s = &histSeries{counts: make([]uint64, len(h.buckets)+1)}
		h.series[ls] = s
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	s.counts[i]++
	s.sum += v
	s.count++
	h.mu.Unlock()
}

// Count reads one series' sample count (tests).
func (h *Histogram) Count(labels map[string]string) uint64 {
	ls := labelString(labels)
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.series[ls]; s != nil {
		return s.count
	}
	return 0
}

func (h *Histogram) render(w io.Writer) {
	h.mu.Lock()
	header(w, h.name, h.help, "histogram")
	for _, k := range seriesKeys(h.series) {
		s := h.series[k]
		if s == nil {
			s = &histSeries{counts: make([]uint64, len(h.buckets)+1)}
		}
		cum := uint64(0)
		for i, bound := range h.buckets {
			cum += s.counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, withLE(k, formatValue(bound)), cum)
		}
		cum += s.counts[len(h.buckets)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, withLE(k, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", h.name, k, formatValue(s.sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.name, k, s.count)
	}
	h.mu.Unlock()
}

// withLE splices the le label into a rendered label string.
func withLE(rendered, le string) string {
	if rendered == "" {
		return `{le="` + le + `"}`
	}
	return rendered[:len(rendered)-1] + `,le="` + le + `"}`
}
