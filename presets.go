package spin

import (
	"fmt"
	"slices"
)

// Preset names the network configurations of the paper's Table III plus
// the deterministic-routing baselines used in Fig. 3.
type Preset struct {
	// Name as used in the paper's plots.
	Name string
	// Description for tables.
	Description string
	// Theory and Type columns of Table III.
	Theory, Type string
	// Adaptive and Minimal columns.
	Adaptive, Minimal string
	Config            Config
}

// presets is the Table III configuration registry. As in the paper, every
// configuration runs three virtual networks (the message classes of a
// directory protocol; synthetic traffic is spread across them round-robin);
// VCsPerVNet is the paper's "nVC" knob, which callers override per
// experiment.
var presets = []Preset{
	{
		Name: "dfly_ugal_ladder", Description: "1024-node dragonfly, UGAL with Dally VC ladder (commercial baseline)",
		Theory: "Dally", Type: "Avoidance", Adaptive: "Full", Minimal: "No",
		Config: Config{Topology: "dragonfly1024", Routing: "ugal_ladder", VNets: 3, VCsPerVNet: 3},
	},
	{
		Name: "dfly_ugal_spin", Description: "1024-node dragonfly, UGAL with free VC use under SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "No",
		Config: Config{Topology: "dragonfly1024", Routing: "ugal_spin", Scheme: "spin", VNets: 3, VCsPerVNet: 3},
	},
	{
		Name: "dfly_minimal_spin", Description: "1024-node dragonfly, minimal routing, 1 VC, SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "dragonfly1024", Routing: "dfly_min", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "dfly_favors_nmin", Description: "1024-node dragonfly, FAvORS non-minimal, 1 VC, SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "No",
		Config: Config{Topology: "dragonfly1024", Routing: "favors_nmin", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "mesh_xy", Description: "8x8 mesh, dimension-ordered routing (deterministic baseline)",
		Theory: "Dally", Type: "Avoidance", Adaptive: "No", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Routing: "xy", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "mesh_westfirst", Description: "8x8 mesh, west-first turn-model routing",
		Theory: "Dally", Type: "Avoidance", Adaptive: "Part", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Routing: "westfirst", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "mesh_escape_vc", Description: "8x8 mesh, fully adaptive with escape VC (Duato)",
		Theory: "Duato", Type: "Avoidance", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Routing: "escape_vc", VNets: 3, VCsPerVNet: 2},
	},
	{
		Name: "mesh_static_bubble", Description: "8x8 mesh, adaptive with Static Bubble recovery",
		Theory: "FlowCtrl", Type: "Recovery", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Scheme: "static_bubble", VNets: 3, VCsPerVNet: 2},
	},
	{
		Name: "mesh_min_adaptive_spin", Description: "8x8 mesh, fully adaptive minimal with SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "mesh_favors_min", Description: "8x8 mesh, FAvORS minimal, 1 VC, SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "mesh:8x8", Routing: "favors_min", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
	// Paper-scale presets: the canonical 1024-node dragonfly of Table
	// III under the paper's headline configuration, and a 64x64 mesh
	// for full-mesh-class studies (milliseconds per cycle; not in the
	// paper).
	{
		Name: "dfly1024", Description: "1024-node dragonfly (p=4, a=8, h=4, g=32), UGAL with free VC use under SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "No",
		Config: Config{Topology: "dragonfly1024", Routing: "ugal_spin", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
	{
		Name: "mesh64x64", Description: "64x64 mesh (4096 nodes), FAvORS minimal, 1 VC, SPIN",
		Theory: "SPIN", Type: "Recovery", Adaptive: "Full", Minimal: "Yes",
		Config: Config{Topology: "mesh:64x64", Routing: "favors_min", Scheme: "spin", VNets: 3, VCsPerVNet: 1},
	},
}

// Presets returns a copy of the Table III configuration registry.
func Presets() []Preset { return slices.Clone(presets) }

// PresetByName resolves one preset.
func PresetByName(name string) (Preset, error) {
	for _, p := range presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("spin: unknown preset %q", name)
}
