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

// Forensics is the deadlock flight-recorder artifact: the scenario, the
// simulator's ForensicsSnapshot (SPIN event ring + frozen/spinning-VC
// chain at the moment the first invariant fired), and the static CDG cut
// of the scenario's routing function — together, the dynamic and static
// views of the same failure. It is written as forensics-<key>.json next
// to the scenario artifact and replayed with `spinsim -replay-forensics`.
type Forensics struct {
	Schema   string   `json:"schema"`
	Scenario Scenario `json:"scenario"`
	// Summary is the failed run's one-line verdict.
	Summary    string          `json:"summary"`
	Violations []sim.Violation `json:"violations,omitempty"`
	Notes      []string        `json:"notes,omitempty"`
	// Snapshot is the flight recorder's dump: the retained SPIN protocol
	// event tail plus the VC freeze/spin chain at failure time.
	Snapshot *sim.ForensicsSnapshot `json:"snapshot,omitempty"`
	// CDG is the static channel-dependency cut for the (topology, routing)
	// pair the run used — which cycles the recovery scheme was responsible
	// for breaking. Nil when the routing has no static model.
	CDG *CDGCut `json:"cdg,omitempty"`
	// Repro is the one-line command that re-drives this artifact through
	// the harness.
	Repro string `json:"repro"`
}

// ForensicsSchema versions the artifact encoding.
const ForensicsSchema = "spin-forensics-v1"

// FlightRecorderCap is the event-ring capacity checked harness runs
// attach (the SPIN protocol event tail retained for forensics).
const FlightRecorderCap = 1024

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
// nil when the topology fails to build or the routing table has no model
// of the routing on it. It never fails a forensics write.
func BuildCDGCut(sc Scenario) *CDGCut {
	topo, err := spin.BuildTopology(sc.Topology, sc.Seed)
	e := spin.LookupRouting(spin.RoutingOf(sc.Config()))
	if err != nil || e == nil {
		return nil
	}
	vcs := max(sc.VCsPerVNet, 1)
	dep, err := e.Model(topo, vcs)
	if err != nil {
		return nil
	}
	g := cdg.Build(topo, vcs, dep)
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

// NewForensics assembles the forensics artifact from a failed run.
func NewForensics(res *Result) Forensics {
	f := Forensics{
		Schema:     ForensicsSchema,
		Scenario:   res.Scenario,
		Summary:    res.Summary(),
		Violations: res.Violations,
		Snapshot:   res.Forensics,
		CDG:        BuildCDGCut(res.Scenario),
	}
	if !res.Drained {
		f.Notes = append(f.Notes, fmt.Sprintf("drain incomplete: %d injected, %d ejected", res.Injected, res.Ejected))
	}
	return f
}

// WriteForensics persists the artifact as <dir>/forensics-<key>.json
// (creating dir) and fills in its repro command. It returns the path.
func WriteForensics(dir string, f Forensics) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "forensics-"+f.Scenario.Key()+".json")
	f.Repro = "spinsim -replay-forensics " + path
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadForensics reads an artifact written by WriteForensics.
func LoadForensics(path string) (Forensics, error) {
	var f Forensics
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("harness: bad forensics artifact %s: %w", path, err)
	}
	if f.Schema != "" && f.Schema != ForensicsSchema {
		return f, fmt.Errorf("harness: forensics artifact %s has schema %q, want %s", path, f.Schema, ForensicsSchema)
	}
	return f, nil
}

// ReplayForensics re-drives the artifact's scenario through the checked
// harness and reports whether the failure reproduced (scenarios are
// deterministic in their seed, so a faithful artifact reproduces
// exactly). The fresh result carries its own new snapshot for
// comparison.
func ReplayForensics(f Forensics) (*Result, bool, error) {
	res, err := Run(f.Scenario)
	if err != nil {
		return nil, false, err
	}
	return res, res.Failed(), nil
}
