package routing

import (
	"fmt"

	"repro/internal/sim"
)

// Table is explicit source-agnostic table routing: Ports[router][dst]
// names the single output port a packet for dst takes at router. Tests use
// it to construct exact buffer-dependency shapes (rings, overlapping
// cycles, figure-8 loops) that adaptive algorithms would route around.
type Table struct {
	sim.BaseRouting
	Ports map[int]map[int]int
	Label string
}

// Name implements sim.RoutingAlgorithm.
func (t *Table) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "table"
}

// Candidates implements cdg.Routing: the table's one port.
func (t *Table) Candidates(router, _ int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	dst := p.RouteDst()
	byDst, ok := t.Ports[router]
	if !ok {
		panic(fmt.Sprintf("routing table: no entries at router %d", router))
	}
	port, ok := byDst[dst]
	if !ok {
		panic(fmt.Sprintf("routing table: no entry at router %d for dst %d", router, dst))
	}
	return append(buf, sim.PortRequest{Port: port, VCMask: sim.AllVCs})
}

// Route implements sim.RoutingAlgorithm.
func (t *Table) Route(r *sim.Router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	return t.Candidates(r.ID, inPort, p, buf)
}

// Set records that packets for dst leave router via port.
func (t *Table) Set(router, dst, port int) {
	if t.Ports == nil {
		t.Ports = map[int]map[int]int{}
	}
	if t.Ports[router] == nil {
		t.Ports[router] = map[int]int{}
	}
	t.Ports[router][dst] = port
}
