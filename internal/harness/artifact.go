package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	spin "repro"
	"repro/internal/cdg"
	"repro/internal/sim"
)

// artifactSchema versions the artifact encoding.
const artifactSchema = "spin-artifact-v1"

// Artifact is the one record a failed run leaves: everything needed to
// rerun the exact configuration plus what was observed, from the run's
// verdict down to the flight recorder's snapshot of the recovery chain.
// It is written as scenario-<key>.json and replayed with
// `spinsim -replay-artifact <file>`.
type Artifact struct {
	Schema   string   `json:"schema"`
	Scenario Scenario `json:"scenario"`
	// Summary is the failed run's one-line verdict.
	Summary    string          `json:"summary,omitempty"`
	Violations []sim.Violation `json:"violations,omitempty"`
	// Notes carries non-checker findings: drain failures, differential
	// delivery mismatches, model counterexamples.
	Notes []string `json:"notes,omitempty"`
	// Trace is the tail of the run's event stream after the drain (the
	// last TraceTail non-flit events), so the artifact shows what the
	// network was doing when it failed — which VCs froze, which SMs were
	// in flight, where the oracle fired — without rerunning anything.
	Trace []sim.Event `json:"trace,omitempty"`
	// Snapshot is the flight recorder's dump at the first failure: the
	// retained SPIN protocol event tail plus the VC freeze/spin chain.
	Snapshot *sim.ForensicsSnapshot `json:"snapshot,omitempty"`
	// CDG is the static channel-dependency cut for the (topology, routing)
	// pair the run used — which cycles the recovery scheme was responsible
	// for breaking. Present with a snapshot, nil when the routing has no
	// static model.
	CDG *CDGCut `json:"cdg,omitempty"`
	// Repro is the one-line command that replays this artifact.
	Repro string `json:"repro"`
}

// cdgCutMaxChannels caps how many channels of the largest cycle are
// embedded in the artifact; big tori have cycles spanning thousands of
// channels and the cut is a diagnostic, not a proof transcript.
const cdgCutMaxChannels = 64

// CDGCut is a compact static summary of the scenario's channel
// dependency graph (Dally & Seitz): the cycle census plus the concrete
// channels of the largest cyclic component.
type CDGCut struct {
	// Routing is the routing modelled: the one the scheme forces, if any
	// (spin.RoutingOf), else the scenario's.
	Routing      string `json:"routing"`
	Summary      string `json:"summary"`
	Channels     int    `json:"channels"`
	Edges        int    `json:"edges"`
	Cycles       int    `json:"cycles"`
	LargestCycle int    `json:"largest_cycle,omitempty"`
	// LargestCycleChannels lists (up to cdgCutMaxChannels of) the largest
	// cyclic component's channels with their link endpoints resolved.
	LargestCycleChannels []CDGChannel `json:"largest_cycle_channels,omitempty"`
}

// CDGChannel is one CDG node with its directed link spelled out.
type CDGChannel struct {
	Link    int `json:"link"`
	VC      int `json:"vc"`
	Src     int `json:"src"`
	SrcPort int `json:"src_port"`
	Dst     int `json:"dst"`
	DstPort int `json:"dst_port"`
}

// BuildCDGCut computes the static CDG cut for the scenario, best-effort:
// nil when the topology fails to build or the routing table cannot build
// the routing on it. It never fails an artifact write.
func BuildCDGCut(sc Scenario) *CDGCut {
	sc = sc.Normalized()
	topo, err := spin.BuildTopology(sc.Topology, sc.Seed)
	e := spin.LookupRouting(spin.RoutingOf(sc))
	if err != nil || e == nil {
		return nil
	}
	_, g, err := e.Verdict(topo, sc.VCsPerVNet)
	if err != nil {
		return nil
	}
	cut := &CDGCut{
		Routing:  e.Name,
		Summary:  g.Describe(),
		Channels: g.NumChannels(),
		Edges:    g.NumEdges(),
	}
	cycles := g.Cycles()
	cut.Cycles = len(cycles)
	var largest []cdg.Channel
	for _, c := range cycles {
		if len(c) > len(largest) {
			largest = c
		}
	}
	cut.LargestCycle = len(largest)
	links := topo.Links()
	if len(largest) > cdgCutMaxChannels {
		largest = largest[:cdgCutMaxChannels]
	}
	for _, ch := range largest {
		l := links[ch.Link]
		cut.LargestCycleChannels = append(cut.LargestCycleChannels, CDGChannel{
			Link: ch.Link, VC: ch.VC,
			Src: l.Src, SrcPort: l.SrcPort, Dst: l.Dst, DstPort: l.DstPort,
		})
	}
	return cut
}

// NewArtifact assembles the artifact of a failed run; the CDG cut rides
// along when the flight recorder took a snapshot.
func NewArtifact(res *Result) Artifact {
	art := Artifact{
		Scenario:   res.Scenario,
		Summary:    res.Summary(),
		Violations: res.Violations,
		Trace:      res.Trace,
		Snapshot:   res.Forensics,
	}
	if !res.Drained {
		art.Notes = append(art.Notes, fmt.Sprintf("drain incomplete: %d injected, %d ejected", res.Injected, res.Ejected))
	}
	if res.Forensics != nil {
		art.CDG = BuildCDGCut(res.Scenario)
	}
	return art
}

// replayCommand is the one line that replays the artifact at path.
func replayCommand(path string) string { return "spinsim -replay-artifact " + path }

// WriteArtifact persists the artifact as <dir>/scenario-<key>.json
// (creating dir) and fills in its schema and repro command. It returns
// the path.
func WriteArtifact(dir string, art Artifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "scenario-"+art.Scenario.Key()+".json")
	art.Schema, art.Repro = artifactSchema, replayCommand(path)
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads an artifact written by WriteArtifact, or by either
// of the writers it replaced: scenario files (no schema) and
// flight-recorder files ("spin-forensics-v1"). Artifact is a superset of
// both shapes, so nothing in them is dropped.
func LoadArtifact(path string) (Artifact, error) {
	var art Artifact
	b, err := os.ReadFile(path)
	if err != nil {
		return art, err
	}
	if err := json.Unmarshal(b, &art); err != nil {
		return art, fmt.Errorf("harness: bad artifact %s: %w", path, err)
	}
	switch art.Schema {
	case "", "spin-forensics-v1", artifactSchema:
		return art, nil
	}
	return art, fmt.Errorf("harness: artifact %s has schema %q, want %s", path, art.Schema, artifactSchema)
}

// ReportFailure writes the artifact for a failed result and returns a
// human-readable message naming its path and replay command. With an
// empty dir it only formats the message.
func ReportFailure(dir string, res *Result) string {
	msg := fmt.Sprintf("scenario %s failed: %s", res.Scenario, res.Summary())
	if dir == "" {
		return msg
	}
	path, err := WriteArtifact(dir, NewArtifact(res))
	if err != nil {
		return fmt.Sprintf("%s (artifact write failed: %v)", msg, err)
	}
	return fmt.Sprintf("%s\nartifact: %s\nreplay:   %s", msg, path, replayCommand(path))
}
