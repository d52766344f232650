// Command spinsweep regenerates the paper's figures: it runs the
// parameter sweeps behind each plot and prints the data series.
//
// Sweeps run on the internal/runner worker pool: -workers bounds the
// number of concurrent simulation points (default: all cores), -timeout
// bounds each point, and -progress streams per-point completions to
// stderr. Results are bit-identical at any worker count for a given
// -seed. Ctrl-C cancels the sweep promptly.
//
// -preset runs a latency curve for one named Table III preset (see
// -pattern, -maxrate) instead of a figure.
//
// The flags describing the sweep fill in one exp.Options — the body the
// spind daemon's /v1/sweep endpoint decodes — and it is validated as the
// endpoint validates a body before anything runs, once per figure under
// -fig all. Dispatch and JSON encoding live in internal/exp (Sweep,
// EncodeJSON) and are shared with the endpoint, so the CLI and the API
// refuse the same requests and emit byte-identical results for the rest.
//
// Usage:
//
//	spinsweep -fig 3            # deadlock onset rates
//	spinsweep -fig 6            # dragonfly latency curves
//	spinsweep -fig 7            # mesh latency curves
//	spinsweep -fig 8a           # PARSEC network EDP
//	spinsweep -fig 8b           # link utilisation breakdown
//	spinsweep -fig 9            # spins and false positives
//	spinsweep -fig 10           # area overheads
//	spinsweep -fig all -workers 8
//	spinsweep -fig 7 -cycles 100000 -full   # paper-scale run
//	spinsweep -preset dfly1024 -progress    # latency curve of one big preset
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"

	"repro/internal/exp"
	"repro/internal/runner"
)

// register binds the flags that describe a sweep to o's fields, so they
// fill in the very request /v1/sweep decodes (execution knobs included).
func register(fs *flag.FlagSet, o *exp.Options) {
	fs.StringVar(&o.Fig, "fig", "all", "figure to regenerate: "+strings.Join(exp.SweepIDs(), ", ")+", all")
	fs.Int64Var(&o.Cycles, "cycles", 0, "cycles per point (0 = default 20000)")
	fs.Int64Var(&o.Warmup, "warmup", 0, "warmup cycles (0 = cycles/10, negative = no warmup)")
	fs.BoolVar(&o.Full, "full", false, "full-size topologies (8x8 mesh, 1024-node dragonfly); default uses scaled-down instances")
	fs.Int64Var(&o.Seed, "seed", 1, "base random seed; per-point seeds derive from it and each point's key")
	fs.BoolVar(&o.Check, "check", false, "attach the runtime invariant checker to every sweep point; a violation fails that point")
	fs.BoolVar(&o.Telemetry, "telemetry", false, "attach per-point telemetry: latency p50/p95/p99 and an epoch-windowed time-series in each point")
	fs.Int64Var(&o.Epoch, "epoch", 0, "telemetry time-series window in cycles (0 = default 100; needs -telemetry)")
	fs.IntVar(&o.Workers, "workers", 0, "concurrent simulation points (0 = GOMAXPROCS); never changes results")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-simulation-point time budget (0 = unlimited), e.g. 30s")
}

// requests is the figure sweeps o names — every figure under -fig all —
// each validated, before anything runs, as /v1/sweep validates a body.
func requests(o exp.Options) ([]exp.Options, error) {
	ids := []string{o.Fig}
	if o.Fig == "all" {
		ids = exp.SweepIDs()
	}
	reqs := make([]exp.Options, len(ids))
	for i, id := range ids {
		o.Fig = id
		if err := o.Validate(); err != nil {
			return nil, err
		}
		reqs[i] = o
	}
	return reqs, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinsweep: ")
	var o exp.Options
	register(flag.CommandLine, &o)
	var (
		preset   = flag.String("preset", "", "sweep one named Table III preset (e.g. dfly1024, mesh64x64) instead of a figure")
		pattern  = flag.String("pattern", "uniform_random", "synthetic traffic pattern for -preset sweeps")
		maxrate  = flag.Float64("maxrate", 0.6, "top of the offered-load ladder for -preset sweeps")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of text")
		progress = flag.Bool("progress", false, "stream per-point completions to stderr")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if o.Epoch != 0 && !o.Telemetry {
		log.Fatal("-epoch needs -telemetry")
	}
	if *progress {
		o.Progress = progressPrinter()
	}
	// emit prints one sweep's result, or exits on its error.
	emit := func(v interface{}, err error) {
		if err == nil && *asJSON {
			err = exp.EncodeJSON(os.Stdout, v)
		} else if err == nil {
			fmt.Print(v)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	if *preset != "" {
		// exp.PresetSweep checks the knobs a preset sweep has.
		emit(exp.PresetSweep(ctx, *preset, *pattern, *maxrate, o))
		return
	}
	reqs, err := requests(o)
	if err != nil {
		log.Fatal(err)
	}
	if len(reqs) == 1 {
		emit(exp.Sweep(ctx, reqs[0].Fig, reqs[0]))
		return
	}
	// All figures dispatch through one shared pool: each figure is a job
	// whose own points fan out on the same scheduler, and the buffered
	// results print in canonical order afterwards.
	jobs := make([]runner.Job[interface{}], len(reqs))
	for i, r := range reqs {
		jobs[i] = runner.Job[interface{}]{Key: "fig/" + r.Fig, Run: func(ctx context.Context, _ int64) (interface{}, error) {
			return exp.Sweep(ctx, r.Fig, r)
		}}
	}
	results, err := runner.Run(ctx, runner.Options{Workers: o.Workers, Seed: o.Seed, Progress: o.Progress}, jobs)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range reqs {
		fmt.Printf("\n===== fig %s =====\n", r.Fig)
		emit(results[i], nil)
	}
}

// progressPrinter builds a goroutine-safe progress sink: under -fig all
// several figure pools complete points concurrently.
func progressPrinter() runner.ProgressFunc {
	var mu sync.Mutex
	return func(e runner.Event) {
		mu.Lock()
		defer mu.Unlock()
		status := "ok"
		if e.Err != nil {
			status = "FAIL: " + e.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "spinsweep: [%d/%d] %s (%.1fs) %s\n",
			e.Done, e.Total, e.Key, e.Elapsed.Seconds(), status)
		if e.Note != "" { // a figure's closing line: what its points cost to set up
			fmt.Fprintf(os.Stderr, "spinsweep: %s\n", e.Note)
		}
	}
}
