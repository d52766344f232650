package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	spin "repro"
	"repro/internal/runner"
	"repro/internal/sim"
)

// fig7Curves lists Fig. 7's 36 (config, pattern) curves the way
// latencyFigures builds them.
func fig7Curves(t *testing.T, o Options) (cfgs []spin.Config, patterns, keys []string) {
	t.Helper()
	for _, pat := range []string{"uniform_random", "bit_complement", "bit_reverse", "bit_rotation", "transpose", "tornado"} {
		for _, c := range []fig67Config{
			{"WestFirst_3VC", "mesh_westfirst", 3}, {"EscapeVC_3VC", "mesh_escape_vc", 3}, {"StaticBubble_3VC", "mesh_static_bubble", 3},
			{"MinAdaptive_SPIN_3VC", "mesh_min_adaptive_spin", 3}, {"WestFirst_1VC", "mesh_westfirst", 1}, {"FAvORS_Min_SPIN_1VC", "mesh_favors_min", 1},
		} {
			preset, err := spin.PresetByName(c.preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg := preset.Config
			cfg.Topology, cfg.VCsPerVNet = o.meshSpec(), c.vcs
			cfgs, patterns, keys = append(cfgs, cfg), append(patterns, pat), append(keys, fmt.Sprintf("fig7/%s/%s", c.label, pat))
		}
	}
	return cfgs, patterns, keys
}

// TestPoolFig7Curves: a pooled Simulation is indistinguishable from a fresh
// one. Fig. 7's 36 curves run in a shuffled order through one pool from 1, 2
// and 8 goroutines — so which network a point gets, and what ran on it
// before, differs every time — and every Series must equal the one computed
// on simulations built for each point (a pool that keeps nothing).
func TestPoolFig7Curves(t *testing.T) {
	o := Options{Cycles: 400, Seed: 3, Check: true}.withDefaults()
	cfgs, patterns, keys := fig7Curves(t, o)
	curve := func(o Options, i int) Series {
		s, err := latencyCurve(context.Background(), cfgs[i], patterns[i], defaultRates(0.6), 300, keys[i], o)
		if err != nil {
			t.Error(err)
		}
		return s
	}
	o.sims = spin.NewPool(0)
	want := make([]Series, len(cfgs))
	for i := range want {
		want[i] = curve(o, i)
	}
	if builds, rewinds := o.sims.Setups(); rewinds != 0 || builds < int64(len(cfgs)) {
		t.Fatalf("the reference rewound: %d builds, %d rewinds", builds, rewinds)
	}
	for _, workers := range []int{1, 2, 8} {
		o.sims = spin.NewPool(simShapes * workers)
		order := rand.New(rand.NewSource(int64(workers))).Perm(len(cfgs))
		got := make([]Series, len(cfgs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					got[i] = curve(o, i)
				}
			}()
		}
		for _, i := range order {
			next <- i
		}
		close(next)
		wg.Wait()
		for i := range want {
			if len(got[i].Points) == 0 || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%d workers: %s through the pool differs from a fresh build's:\npooled %+v\nfresh  %+v", workers, keys[i], got[i], want[i])
			}
		}
		builds, rewinds := o.sims.Setups()
		if builds > int64(2*workers) {
			t.Errorf("%d workers built %d networks for 2 shapes (%d rewinds)", workers, builds, rewinds)
		}
	}
}

// pollsThen is a context whose Err turns into err at the nth poll: a
// cancellation or a deadline that lands mid-run, on a counter, not a clock.
type pollsThen struct {
	context.Context
	mu    sync.Mutex
	polls int
	err   error
}

func (c *pollsThen) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls--; c.polls < 0 {
		return c.err
	}
	return nil
}

// TestPoolForgetsFailedJobs: a point that is cancelled mid-run, one that
// times out mid-run and one that panics each leave nothing in the pool — the
// Simulation they took from it is gone, not handed back half-run — and the
// next point on that worker is a build that returns what a fresh one does.
func TestPoolForgetsFailedJobs(t *testing.T) {
	o := Options{Cycles: 2000, Seed: 5, Workers: 1}.withDefaults()
	cfg := spin.Config{Topology: o.meshSpec(), Routing: "min_adaptive", Scheme: "spin", Traffic: "uniform_random", Rate: 0.3, VNets: 3, VCsPerVNet: 1}
	point := func(ctx context.Context, read func(*spin.Simulation)) (st sim.Stats, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panicked: %v", r)
			}
		}()
		res, err := runPoint(ctx, cfg, "forget@0.3", o, false, read)
		if err != nil {
			return st, err
		}
		return res.Stats, nil
	}
	ref := o
	ref.sims = spin.NewPool(0)
	want, err := runPoint(context.Background(), cfg, "forget@0.3", ref, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, fail := range map[string]struct {
		ctx  context.Context
		read func(*spin.Simulation)
		is   func(error) bool
	}{
		"cancelled": {&pollsThen{Context: context.Background(), polls: 10, err: context.Canceled}, nil,
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		"timed out": {&pollsThen{Context: context.Background(), polls: 10, err: context.DeadlineExceeded}, nil,
			func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		"panicked": {context.Background(), func(*spin.Simulation) { panic("boom") },
			func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "panicked: boom") }},
	} {
		if _, err := point(context.Background(), nil); err != nil { // leaves one idle
			t.Fatal(err)
		}
		builds, rewinds := o.sims.Setups()
		if _, err := point(fail.ctx, fail.read); !fail.is(err) {
			t.Fatalf("%s: got %v", name, err)
		}
		if b, r := o.sims.Setups(); b != builds || r != rewinds+1 {
			t.Fatalf("%s: the failing point did not take the idle simulation (%d builds, %d rewinds; before %d, %d)", name, b, r, builds, rewinds)
		}
		got, err := point(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := o.sims.Setups(); b != builds+1 {
			t.Fatalf("%s: the point after it rewound something (%d builds, want %d): the pool was handed a half-run simulation", name, b, builds+1)
		}
		if got.Ejected == 0 || !reflect.DeepEqual(got, want.Stats) {
			t.Fatalf("%s: the point after it differs from a fresh build's:\nafter %+v\nfresh %+v", name, got, want.Stats)
		}
	}
}

// TestPoolClosingLine: the last progress event of a figure says what its
// points cost to set up, and no event before it does.
func TestPoolClosingLine(t *testing.T) {
	var notes []string
	o := Options{Cycles: 100, Seed: 1, Workers: 2, Timeout: time.Minute, Progress: func(e runner.Event) {
		if e.Note != "" || e.Done == e.Total {
			notes = append(notes, e.Note)
		}
	}}
	if _, err := Fig9(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	var points, builds int
	if len(notes) != 1 {
		t.Fatalf("closing lines: %q", notes)
	}
	if _, err := fmt.Sscanf(notes[0], "%d points, %d networks built", &points, &builds); err != nil || points != 20 || builds < 4 || builds > 8 {
		t.Fatalf("closing line %q (%v): want 20 points over 4 shapes on 2 workers", notes[0], err)
	}
}
