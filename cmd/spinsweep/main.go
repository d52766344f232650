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
// Dispatch and JSON encoding live in internal/exp (Sweep, EncodeJSON)
// and are shared with the spind daemon's /v1/sweep endpoint, so the CLI
// and the API emit byte-identical results for identical requests.
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
	"sync"

	"repro/internal/exp"
	"repro/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinsweep: ")
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 3, 6, 7, 8a, 8b, 9, 10, costs, torus, deflection, all")
		preset   = flag.String("preset", "", "sweep one named Table III preset (e.g. dfly1024, mesh64x64) instead of a figure")
		pattern  = flag.String("pattern", "uniform_random", "synthetic traffic pattern for -preset sweeps")
		maxrate  = flag.Float64("maxrate", 0.6, "top of the offered-load ladder for -preset sweeps")
		cycles   = flag.Int64("cycles", 0, "cycles per point (0 = default 20000)")
		warmup   = flag.Int64("warmup", 0, "warmup cycles (0 = cycles/10, negative = no warmup)")
		full     = flag.Bool("full", false, "full-size topologies (8x8 mesh, 1024-node dragonfly); default uses scaled-down instances")
		seed     = flag.Int64("seed", 1, "base random seed; per-point seeds derive from it and each point's key")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of text")
		workers  = flag.Int("workers", 0, "concurrent simulation points (0 = GOMAXPROCS); never changes results")
		timeout  = flag.Duration("timeout", 0, "per-simulation-point time budget (0 = unlimited), e.g. 30s")
		progress = flag.Bool("progress", false, "stream per-point completions to stderr")
		check    = flag.Bool("check", false, "attach the runtime invariant checker to every sweep point; a violation fails that point")
		tele     = flag.Bool("telemetry", false, "attach per-point telemetry: latency p50/p95/p99 and an epoch-windowed time-series in each point")
		epoch    = flag.Int64("epoch", 0, "telemetry time-series window in cycles (0 = default 100; needs -telemetry)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *epoch != 0 && !*tele {
		log.Fatal("-epoch needs -telemetry")
	}
	o := exp.Options{
		Cycles: *cycles, Warmup: *warmup, Small: !*full, Seed: *seed,
		Workers: *workers, Timeout: *timeout, Check: *check,
		Telemetry: *tele, Epoch: *epoch,
	}
	if *progress {
		o.Progress = progressPrinter()
	}
	emit := func(v interface{}) error {
		if *asJSON {
			return exp.EncodeJSON(os.Stdout, v)
		}
		fmt.Print(v)
		return nil
	}

	if *preset != "" {
		v, err := exp.PresetSweep(ctx, *preset, *pattern, *maxrate, o)
		if err != nil {
			log.Fatal(err)
		}
		if err := emit(v); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fig == "all" {
		// All figures dispatch through one shared pool: each figure is a
		// job whose own points fan out on the same scheduler, and the
		// buffered results print in canonical order afterwards.
		ids := exp.SweepIDs()
		jobs := make([]runner.Job[interface{}], len(ids))
		for i, id := range ids {
			id := id
			jobs[i] = runner.Job[interface{}]{Key: "fig/" + id, Run: func(ctx context.Context, _ int64) (interface{}, error) {
				return exp.Sweep(ctx, id, o)
			}}
		}
		results, err := runner.Run(ctx, runner.Options{Workers: *workers, Seed: *seed, Progress: o.Progress}, jobs)
		if err != nil {
			log.Fatal(err)
		}
		for i, id := range ids {
			fmt.Printf("\n===== fig %s =====\n", id)
			if err := emit(results[i]); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	if err := (exp.SweepRequest{Fig: *fig}).Validate(); err != nil {
		log.Fatal(err)
	}
	v, err := exp.Sweep(ctx, *fig, o)
	if err != nil {
		log.Fatal(err)
	}
	if err := emit(v); err != nil {
		log.Fatal(err)
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
