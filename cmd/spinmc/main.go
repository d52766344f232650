// Command spinmc is the explicit-state model checker for the SPIN
// protocol: it exhausts (or bounds) the state space of a small
// abstracted instance, checks the safety invariants and the
// reach-delivery liveness property on every state, and prints the
// state-space census. Property violations are written as harness
// failure artifacts replayable through the simulator:
//
//	spinmc -topo mesh2x2                  # exhaust, print census
//	spinmc -topo ring5 -bound 24 -json    # bounded, census as JSON
//	spinmc -topo ring5 -mutate no_probe -out /tmp/cex
//	spinsim -replay-artifact /tmp/cex/scenario-<key>.json
//
// Exit status 1 means a property violation. Under -json, stdout holds only
// the JSON document; the summary lines go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/harness"
	"repro/internal/mc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is spinmc on args, writing to stdout and stderr, and returns its exit
// status. Under -json stdout holds the one JSON document and nothing else:
// the human lines go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "spinmc: ", 0)
	fs := flag.NewFlagSet("spinmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo      = fs.String("topo", "mesh2x2", "instance: mesh2x2, mesh3x3, or ring5")
		packets   = fs.Int("packets", 0, "truncate the instance workload to its first N packets (0 = all)")
		bound     = fs.Int("bound", 0, "BFS depth bound in levels (0 = exhaust)")
		workers   = fs.Int("workers", 0, "parallel expansion workers (0 = GOMAXPROCS)")
		maxStates = fs.Int("maxstates", 0, "stop expanding once the store exceeds N states (0 = unlimited)")
		mutate    = fs.String("mutate", "none", "inject a protocol defect: none, no_probe, or spin_unchecked")
		out       = fs.String("out", "", "directory for counterexample artifacts (replay with spinsim -replay-artifact)")
		jsonOut   = fs.Bool("json", false, "print the full result as JSON instead of a summary")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mut, err := mc.MutationByName(*mutate)
	if err != nil {
		logger.Print(err)
		return 1
	}
	in, err := mc.NewInstance(*topo, *packets, mut)
	if err != nil {
		logger.Print(err)
		return 1
	}
	res, err := mc.Check(ctx, in, mc.Options{Workers: *workers, Bound: *bound, MaxStates: *maxStates})
	if err != nil {
		logger.Print(err)
		return 1
	}

	human := stdout
	if *jsonOut {
		human = stderr
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			logger.Print(err)
			return 1
		}
	} else {
		c := res.Census
		fmt.Fprintf(stdout, "%s (%d packets, mutation %s): %d states, %d edges, diameter %d",
			c.Instance, c.Packets, c.Mutation, c.States, c.Edges, c.Diameter)
		if c.Truncated {
			fmt.Fprintf(stdout, " (truncated at bound %d)", c.Bound)
		}
		fmt.Fprintf(stdout, "\n  deadlocked states: %d, max recovery distance: %d\n", c.Deadlocked, c.MaxRecoveryDistance)
	}
	if !res.Failed() {
		fmt.Fprintln(human, "  no property violations")
		return 0
	}
	fmt.Fprintf(human, "  %d property violations (%d reported)\n", res.TotalViolations, len(res.Violations))
	for i, v := range res.Violations {
		if i >= 4 && !*jsonOut {
			fmt.Fprintf(human, "  ... %d more\n", len(res.Violations)-i)
			break
		}
		fmt.Fprintf(human, "  [%s] %s (trace: %d steps)\n", v.Kind, v.Message, len(v.Trace))
	}
	if *out != "" {
		paths, err := writeArtifacts(logger, in, res, *out)
		if err != nil {
			logger.Print(err)
			return 1
		}
		for _, p := range paths {
			fmt.Fprintf(human, "  counterexample: %s\n", p)
		}
	}
	return 1
}

// writeArtifacts converts each replayable violation into a harness
// failure artifact under dir, deduplicating identical scenarios (many
// violations share one injection prefix).
func writeArtifacts(logger *log.Logger, in *mc.Instance, res *mc.Result, dir string) ([]string, error) {
	var paths []string
	seen := map[string]bool{}
	for _, v := range res.Violations {
		sc, err := in.TraceScenario(v)
		if err != nil {
			logger.Printf("skip %s violation: %v", v.Kind, err)
			continue
		}
		key := sc.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		art := harness.Artifact{
			Scenario: sc,
			Summary:  fmt.Sprintf("model counterexample: [%s] %s", v.Kind, v.Message),
			Notes:    []string{fmt.Sprintf("model trace (%d steps): %v", len(v.Trace), v.Trace)},
		}
		p, err := harness.WriteArtifact(dir, art)
		if err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
