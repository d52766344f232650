package exp

import (
	"fmt"
	"strings"

	spin "repro"
	"repro/internal/cdg"
	"repro/internal/topology"
)

// Table1Row is one framework of the qualitative comparison (Table I).
// The CDG columns are verified mechanically by internal/cdg at
// construction time rather than asserted.
type Table1Row struct {
	Theory              string
	InjectionRestricted string
	AcyclicCDGRequired  string
	TopologyDependent   string
	VCsMinimalMesh      string
	VCsMinimalDfly      string
	VCsAdaptiveMesh     string
	VCsAdaptiveDfly     string
	LivelockCost        string
}

// Table1Result is the framework comparison.
type Table1Result struct {
	Rows []Table1Row
	// Verification notes from the CDG analysis.
	Notes []string
}

// String renders Table I.
func (t *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("# Table I: comparison of deadlock freedom theories\n")
	fmt.Fprintf(&b, "%-12s %-10s %-12s %-10s %-28s %-28s %-10s\n",
		"theory", "inj.restr", "acyclicCDG", "topo-dep", "VCs minimal (mesh/dfly)", "VCs adaptive (mesh/dfly)", "livelock")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-10s %-12s %-10s %-28s %-28s %-10s\n",
			r.Theory, r.InjectionRestricted, r.AcyclicCDGRequired, r.TopologyDependent,
			r.VCsMinimalMesh+" / "+r.VCsMinimalDfly,
			r.VCsAdaptiveMesh+" / "+r.VCsAdaptiveDfly, r.LivelockCost)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# verified: %s\n", n)
	}
	return b.String()
}

// Table1 builds the comparison and mechanically verifies the CDG claims
// behind it on concrete instances.
func Table1() (*Table1Result, error) {
	res := &Table1Result{Rows: []Table1Row{
		{"Dally", "No", "Yes", "Yes", "1", "2", "6", "3", "None"},
		{"Duato", "No", "No*", "Yes", "1", "2", "2", "3", "None"},
		{"FlowCtrl", "Yes", "No", "Yes", "2", "2", "2", "2", "None"},
		{"Deflection", "Yes", "No", "No", "n/a", "n/a", "0", "0", "High"},
		{"SPIN", "No", "No", "No", "1", "1", "1", "1", "None"},
	}}
	mesh, err := topology.NewMesh(4, 4, 1)
	if err != nil {
		return nil, err
	}
	dfly, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3)
	if err != nil {
		return nil, err
	}
	checks := []struct {
		name    string
		acyclic bool
		got     bool
	}{
		{"mesh XY (Dally, minimal) acyclic", true, cdg.Build(mesh, 1, cdg.XYDep(mesh)).Acyclic()},
		{"mesh west-first (Dally, partial adaptive) acyclic", true, cdg.Build(mesh, 2, cdg.WestFirstDep(mesh)).Acyclic()},
		{"mesh fully-adaptive (needs SPIN) cyclic", false, cdg.Build(mesh, 1, cdg.MinAdaptiveDep(mesh)).Acyclic()},
		{"mesh Duato escape sub-network acyclic", true, cdg.Build(mesh, 3, cdg.EscapeSubgraphDep(mesh)).Acyclic()},
		{"dragonfly VC ladder (Dally) acyclic", true, cdg.Build(dfly, 2, cdg.DflyLadderDep(dfly, 2, false)).Acyclic()},
		{"dragonfly free-VC (needs SPIN) cyclic", false, cdg.Build(dfly, 1, cdg.DflyFreeDep(dfly)).Acyclic()},
	}
	for _, c := range checks {
		status := "OK"
		if c.got != c.acyclic {
			status = "MISMATCH"
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s [%s]", c.name, status))
		if status == "MISMATCH" {
			return nil, fmt.Errorf("exp: table I verification failed: %s", c.name)
		}
	}
	return res, nil
}

// Table2Result lists SPIN's router modules and the loop-buffer sizing
// (Table II).
type Table2Result struct {
	Rows []struct {
		Module, Description string
	}
	LoopBufferBitsMesh, LoopBufferBitsDfly int
}

// String renders Table II.
func (t *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("# Table II: SPIN router modules\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %s\n", r.Module, r.Description)
	}
	fmt.Fprintf(&b, "loop buffer: log2(radix)*N bits = %d bits (8x8 mesh), %d bits (1024-node dragonfly)\n",
		t.LoopBufferBitsMesh, t.LoopBufferBitsDfly)
	return b.String()
}

// Table2 builds the module listing with computed loop-buffer sizes.
func Table2() *Table2Result {
	t := &Table2Result{}
	add := func(m, d string) {
		t.Rows = append(t.Rows, struct{ Module, Description string }{m, d})
	}
	add("FSM", "manages SM traversals and correctness (7-state counter FSM)")
	add("Probe Manager", "scans input-port VCs for unique blocked output ports; forks probes")
	add("Move Manager", "processes move, kill_move and probe_move per the FSM state")
	add("Loop Buffer", "stores the deadlock path: log2(radix) bits per network router")
	t.LoopBufferBitsMesh = 3 * 64  // ceil(log2(5)) * 64
	t.LoopBufferBitsDfly = 4 * 256 // ceil(log2(15)) * 256
	return t
}

// Table3Result lists the evaluated network configurations (Table III).
type Table3Result struct{ Presets []spin.Preset }

// String renders Table III.
func (t *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("# Table III: network configurations\n")
	fmt.Fprintf(&b, "%-24s %-10s %-10s %-9s %-8s %s\n", "name", "theory", "type", "adaptive", "minimal", "description")
	for _, p := range t.Presets {
		fmt.Fprintf(&b, "%-24s %-10s %-10s %-9s %-8s %s\n", p.Name, p.Theory, p.Type, p.Adaptive, p.Minimal, p.Description)
	}
	return b.String()
}

// Table3 returns the preset registry as a table.
func Table3() *Table3Result { return &Table3Result{Presets: spin.Presets()} }
