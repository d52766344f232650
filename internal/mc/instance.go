// Package mc is an explicit-state model checker for the SPIN protocol:
// an untimed abstraction of the simulator's routers (one single-packet VC
// per input port, a handful of packets, deterministic routing) with the
// agent state machine of internal/spin reduced to nondeterministic
// enabled actions (timers become "may fire now"). The checker enumerates
// every reachable protocol state of a small instance by parallel frontier
// BFS, checks safety invariants (no lost or duplicated packets, frozen-VC
// and credit sanity, spin mutual exclusion) on each, and checks the
// recovery liveness property — every state that is not fully delivered
// can still reach a delivery — over the stored state graph. Property
// violations carry a counterexample trace that replays through
// internal/sim via the harness scenario format, so a disagreement
// between model and simulator is itself a reportable bug.
package mc

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Packet is one packet of an instance's fixed workload. Src and Dst are
// router ids; every instance attaches exactly one terminal per router, so
// they double as terminal ids in the replay scenario.
type Packet struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Mutation selects a deliberate protocol defect, used to prove the
// checker finds bugs (and that its counterexamples reproduce in the
// simulator).
type Mutation int

// Mutations.
const (
	// MutNone checks the faithful protocol.
	MutNone Mutation = iota
	// MutNoProbe disables the timeout/probe phase entirely: deadlocks are
	// never detected, so any reachable true deadlock becomes a liveness
	// counterexample. Replays as the scenario's "mutation": "no_probe",
	// which the facade's scheme table builds as SPIN's DisableProbe.
	MutNoProbe
	// MutSpinUnchecked skips the chain-closure check before a spin: a
	// partially frozen chain rotates anyway, pushing a packet into an
	// occupied VC — a safety (duplicate-occupancy) counterexample. This
	// defect lives in the model's abstraction of triggerSpin and has no
	// simulator knob; it validates the safety-invariant machinery.
	MutSpinUnchecked
)

func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutNoProbe:
		return "no_probe"
	case MutSpinUnchecked:
		return "spin_unchecked"
	}
	return fmt.Sprintf("mutation(%d)", int(m))
}

// MutationByName parses a -mutate flag value.
func MutationByName(s string) (Mutation, error) {
	switch s {
	case "", "none":
		return MutNone, nil
	case "no_probe":
		return MutNoProbe, nil
	case "spin_unchecked":
		return MutSpinUnchecked, nil
	}
	return MutNone, fmt.Errorf("mc: unknown mutation %q", s)
}

// portDest is the downstream end of a link output port.
type portDest struct {
	router int
	inPort int
}

// Instance is one checkable protocol configuration: a topology, a
// deterministic route table derived from the simulator's own routing
// logic, and a fixed packet workload.
type Instance struct {
	// Name is the registry key ("mesh2x2", "mesh3x3", "ring5").
	Name string
	// TopoSpec and RoutingName are the spin.Config spec strings the
	// replay scenario uses; the model's route table mirrors them exactly.
	TopoSpec    string
	RoutingName string
	// Packets is the workload (truncatable via the -packets flag).
	Packets []Packet
	// MaxPath caps probe paths, mirroring the simulator's cap
	// of 2 x routers (internal/spin's loop-buffer depth).
	MaxPath int
	// Mutation is the injected defect (MutNone = faithful protocol).
	Mutation Mutation

	topo  topology.Topology
	radix []int        // ports per router, local port 0 + link ports
	down  [][]portDest // down[r][port]; router -1 where no out-link exists
	route [][]int8     // route[r][dst] = deterministic out port; -1 at dst
}

// NumRouters reports the instance's router count.
func (in *Instance) NumRouters() int { return len(in.radix) }

// Radix reports router r's port count (local port 0 included).
func (in *Instance) Radix(r int) int { return in.radix[r] }

// Down resolves the downstream (router, input port) of r's output port p,
// or ok=false for the local port, unwired ports, and out-of-range p (a
// mutation-corrupted walk may ask about a packet already at its
// destination, whose route is -1).
func (in *Instance) Down(r, p int) (portDest, bool) {
	if p < 0 || p >= len(in.down[r]) {
		return portDest{router: -1}, false
	}
	d := in.down[r][p]
	return d, d.router >= 0
}

// Route reports the deterministic output port from r toward dst.
func (in *Instance) Route(r, dst int) int { return int(in.route[r][dst]) }

// NewInstance resolves a named instance. The registry holds the three
// instances of the census goldens; packets > 0 truncates the workload to
// its first packets entries.
func NewInstance(name string, packets int, mut Mutation) (*Instance, error) {
	var in *Instance
	var err error
	switch name {
	case "mesh2x2":
		// Both packets converge on router 3: pkt1 parks in r3's ejection
		// VC while pkt0 head-blocks at r1 — probes fire and must be
		// dropped at the ejecting VC. XY routing is deadlock-free, so the
		// full space must be violation-free with every packet delivered.
		in, err = meshInstance(2, 2, []Packet{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}})
	case "mesh3x3":
		// Two packets sharing the column-2 ascent: they contend for r5's
		// north link from different input ports, producing multi-hop
		// blocked chains (and probe walks) without any true deadlock.
		in, err = meshInstance(3, 3, []Packet{{Src: 0, Dst: 8}, {Src: 3, Dst: 8}})
	case "ring5":
		// The classic ring deadlock: packet i travels two hops clockwise,
		// so all five link VCs fill with packets each one hop from home —
		// a true cyclic wait only a synchronized spin resolves.
		pk := make([]Packet, 5)
		for i := range pk {
			pk[i] = Packet{Src: i, Dst: (i + 2) % 5}
		}
		in, err = ringInstance(5, pk)
	default:
		return nil, fmt.Errorf("mc: unknown instance %q (want mesh2x2, mesh3x3, or ring5)", name)
	}
	if err != nil {
		return nil, err
	}
	if packets > 0 {
		if packets > len(in.Packets) {
			return nil, fmt.Errorf("mc: instance %s defines %d packets, asked for %d", name, len(in.Packets), packets)
		}
		in.Packets = in.Packets[:packets]
	}
	in.Mutation = mut
	return in, nil
}

// meshInstance builds an X x Y mesh instance routed by the simulator's
// dimension-ordered table (routing.XYPort), the deterministic mesh
// routing the replay scenario runs.
func meshInstance(x, y int, pk []Packet) (*Instance, error) {
	m, err := topology.NewMesh(x, y, 1)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		Name:        fmt.Sprintf("mesh%dx%d", x, y),
		TopoSpec:    fmt.Sprintf("mesh:%dx%d", x, y),
		RoutingName: "xy",
		Packets:     pk,
		topo:        m,
	}
	in.wire()
	n := m.NumRouters()
	in.route = make([][]int8, n)
	for r := 0; r < n; r++ {
		in.route[r] = make([]int8, n)
		for dst := 0; dst < n; dst++ {
			if dst == r {
				in.route[r][dst] = -1
				continue
			}
			in.route[r][dst] = int8(routing.XYPort(m, r, dst))
		}
	}
	return in, in.validate()
}

// ringInstance builds a bidirectional N-ring routed by the unique minimal
// port — the deterministic special case of min_adaptive the replay
// scenario relies on. Workloads whose minimal direction ties (equal CW
// and CCW distance) are rejected: the simulator would break the tie with
// its per-router RNG and the model could not mirror it.
func ringInstance(nr int, pk []Packet) (*Instance, error) {
	t, err := topology.NewRing(nr, 1, true)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		Name:        fmt.Sprintf("ring%d", nr),
		TopoSpec:    fmt.Sprintf("ring:%d", nr),
		RoutingName: "min_adaptive",
		Packets:     pk,
		topo:        t,
	}
	in.wire()
	in.route = make([][]int8, nr)
	for r := 0; r < nr; r++ {
		in.route[r] = make([]int8, nr)
		for dst := 0; dst < nr; dst++ {
			if dst == r {
				in.route[r][dst] = -1
				continue
			}
			ports := t.MinimalPorts(r, dst)
			if len(ports) != 1 {
				return nil, fmt.Errorf("mc: ring%d route %d->%d has %d minimal ports; the model needs a unique one", nr, r, dst, len(ports))
			}
			in.route[r][dst] = int8(ports[0])
		}
	}
	return in, in.validate()
}

// wire derives radix and the port-level link map from the topology.
func (in *Instance) wire() {
	n := in.topo.NumRouters()
	in.radix = make([]int, n)
	in.down = make([][]portDest, n)
	for r := 0; r < n; r++ {
		in.radix[r] = in.topo.Radix(r)
		in.down[r] = make([]portDest, in.radix[r])
		for p := range in.down[r] {
			in.down[r][p] = portDest{router: -1}
		}
	}
	for _, l := range in.topo.Links() {
		in.down[l.Src][l.SrcPort] = portDest{router: l.Dst, inPort: l.DstPort}
	}
	in.MaxPath = 2 * n
}

// validate checks the workload and route table are self-consistent:
// every packet's route walks real links and terminates at its
// destination.
func (in *Instance) validate() error {
	for i, p := range in.Packets {
		if p.Src == p.Dst {
			return fmt.Errorf("mc: packet %d is self-destined at router %d", i, p.Src)
		}
		r := p.Src
		for hops := 0; r != p.Dst; hops++ {
			if hops > in.NumRouters() {
				return fmt.Errorf("mc: packet %d route %d->%d does not terminate", i, p.Src, p.Dst)
			}
			out := in.Route(r, p.Dst)
			d, ok := in.Down(r, out)
			if out <= 0 || !ok {
				return fmt.Errorf("mc: packet %d route stalls at router %d (port %d)", i, r, out)
			}
			r = d.router
		}
	}
	return nil
}
