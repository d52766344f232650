package prom

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// TestLabelValueEscaping pins the 0.0.4 text format's escapes: backslash,
// double quote and newline are escaped, everything else that is valid UTF-8
// goes through as it is, and invalid UTF-8 is replaced — Go-syntax escapes
// (\t, \x00, \u200b) are not part of the format and lose a scraper the page.
func TestLabelValueEscaping(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"plain", "node-a", `node-a`},
		{"tab", "a\tb", "a\tb"},
		{"quote", `a"b`, `a\"b`},
		{"backslash", `a\b`, `a\\b`},
		{"newline", "a\nb", `a\nb`},
		{"carriage return", "a\rb", "a\rb"},
		{"printable non-ASCII", "nœud-é", "nœud-é"},
		{"zero-width space", "a\u200bb", "a\u200bb"},
		{"control byte", "a\x01b", "a\x01b"},
		{"invalid UTF-8", "a\xffb", "a\uFFFDb"},
	} {
		got := Labels("peer", c.in)
		if want := `{peer="` + c.want + `"}`; got != want {
			t.Errorf("%s: Labels = %q, want %q", c.name, got, want)
		}
		if !utf8.ValidString(got) || strings.Count(got, "\n") != 0 {
			t.Errorf("%s: %q is not one line of valid UTF-8", c.name, got)
		}
	}
	// The same renderer names a bound series.
	reg := NewRegistry()
	reg.Counter("t_total", "t").With("peer", "a\"\xff\n").Add(1)
	var buf bytes.Buffer
	reg.Render(&buf)
	if want := "t_total{peer=\"a\\\"\uFFFD\\n\"} 1\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("render lacks %q:\n%s", want, buf.String())
	}
}

// TestMetricsRenderOneSeriesPerLabelSet: however many goroutines bind a label set, in
// whatever key order, they get one series and lose no update.
func TestMetricsRenderOneSeriesPerLabelSet(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "t")
	h := reg.Histogram("t_seconds", "t", []float64{1, 2})
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					c.With("endpoint", "simulate", "code", "200").Add(1)
				} else {
					c.With("code", "200", "endpoint", "simulate").Add(1)
				}
				h.With("endpoint", "simulate").Observe(1.5)
			}
		}(w)
	}
	wg.Wait()
	if c.With("endpoint", "simulate", "code", "200") != c.With("code", "200", "endpoint", "simulate") {
		t.Error("one label set bound two series")
	}
	if got := c.With("code", "200", "endpoint", "simulate").Value(); got != workers*iters {
		t.Errorf("counter = %v, want %d", got, workers*iters)
	}
	if got := h.With("endpoint", "simulate").Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var buf bytes.Buffer
	reg.Render(&buf)
	for _, want := range []string{
		"t_total{code=\"200\",endpoint=\"simulate\"} 4000\n",
		"t_seconds_bucket{endpoint=\"simulate\",le=\"1\"} 0\n",
		"t_seconds_bucket{endpoint=\"simulate\",le=\"2\"} 4000\n",
		"t_seconds_sum{endpoint=\"simulate\"} 6000\n",
		"t_seconds_count{endpoint=\"simulate\"} 4000\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestBoundButUntouchedRendersZeroSeries: binding a series is not an
// update. An instrument whose series were only bound still renders its
// unlabeled zero series, every bucket included, and a bound series enters
// the exposition with its first sample.
func TestBoundButUntouchedRendersZeroSeries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_seconds", "t", []float64{1, 2})
	c := reg.Counter("t_total", "t")
	hs, cs := h.With("endpoint", "simulate"), c.With("endpoint", "simulate")
	render := func() string {
		var buf bytes.Buffer
		reg.Render(&buf)
		return buf.String()
	}
	out := render()
	for _, want := range []string{
		"t_seconds_bucket{le=\"1\"} 0\n", "t_seconds_bucket{le=\"2\"} 0\n", "t_seconds_bucket{le=\"+Inf\"} 0\n",
		"t_seconds_sum 0\n", "t_seconds_count 0\n", "t_total 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("untouched render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "endpoint") {
		t.Errorf("a series that was only bound is in the exposition:\n%s", out)
	}
	hs.Observe(3)
	cs.Add(2)
	out = render()
	for _, want := range []string{"t_seconds_bucket{endpoint=\"simulate\",le=\"+Inf\"} 1\n", "t_total{endpoint=\"simulate\"} 2\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render after the first sample lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "t_seconds_count 0") || strings.Contains(out, "t_total 0") {
		t.Errorf("the zero series outlived the first sample:\n%s", out)
	}
}

// gate is a scraper that reads slowly: the Write of the first sample line
// (the second Write, after the # HELP header) blocks until released.
type gate struct {
	bytes.Buffer
	writes  int
	entered chan struct{} // closed when that Write begins
	release chan struct{}
}

func (g *gate) Write(p []byte) (int, error) {
	if g.writes++; g.writes == 2 {
		close(g.entered)
		<-g.release
	}
	return g.Buffer.Write(p)
}

// TestMetricsRenderSlowScrape: a render stuck in the scraper's
// Write must not hold the instrument against Add, Observe or With — every
// request's instrument tail goes through them.
func TestMetricsRenderSlowScrape(t *testing.T) {
	for _, kind := range []string{"counter", "histogram"} {
		reg := NewRegistry()
		update := func() {}
		switch kind {
		case "counter":
			c := reg.Counter("t_total", "t")
			c.Add(1)
			update = func() { c.Add(1); c.With("code", "200").Add(1) }
		case "histogram":
			h := reg.Histogram("t_seconds", "t", []float64{1})
			h.Observe(1)
			update = func() { h.Observe(1); h.With("code", "200").Observe(1) }
		}
		g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
		rendered := make(chan struct{})
		go func() { reg.Render(g); close(rendered) }()
		<-g.entered // the render is inside the scraper's Write
		updated := make(chan struct{})
		go func() { update(); close(updated) }()
		select {
		case <-updated:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: an update waited for a slow scrape", kind)
		}
		close(g.release)
		<-rendered
		<-updated
	}
}
