package sim

// PortRequest names an output port a packet asks for, together with the
// downstream VCs (within the packet's virtual network) it may occupy
// there. Deadlock-avoidance theories express their restrictions through
// these masks: Dally VC ladders allow a single VC, Duato escape schemes
// pair an adaptive request with an escape request, SPIN configurations
// allow every VC.
type PortRequest struct {
	Port int
	// VCMask is a bitmask over VC indices 0..VCsPerVNet-1. Bit k set means
	// downstream VC k of the packet's vnet is admissible.
	VCMask uint32
}

// MaxVCsPerVNet is the most VCs a vnet can have: one per bit of VCMask.
const MaxVCsPerVNet = 32

// MaxVCsPerPort is the most VCs an input port can have, VNets x
// VCsPerVNet: four vnets at MaxVCsPerVNet. VC.index is a byte below it and
// VC.slot (port*VCsPerPort+index at radix <= 64) a uint16. It also bounds
// what one request can make a network allocate: every port's VCs are built
// up front.
const MaxVCsPerPort = 128

// MaxVCDepth is the deepest a VC can be, in flits: room for 200 packets of
// MaxPktLen where virtual cut-through uses one, and small enough that a
// VC's flit counts (buffered, in flight, free) are int16s.
const MaxVCDepth = 1024

// AllVCs is the unrestricted VC mask.
const AllVCs uint32 = ^uint32(0)

// RoutingAlgorithm decides where packets go. Route is called once per
// router visit, when a packet's head flit reaches the front of its VC; the
// returned requests are held until the packet wins switch allocation
// (adaptive algorithms therefore adapt via the congestion state visible at
// routing time, as in Garnet). Requests are tried in preference order each
// cycle.
type RoutingAlgorithm interface {
	// Name identifies the algorithm in stats and tables.
	Name() string
	// Route computes the output-port requests for p at router r, arriving
	// on input port inPort. It must append to buf and return it; it must
	// not return an empty slice for a deliverable packet. Ejection is
	// handled by the engine before Route is consulted.
	Route(r *Router, inPort int, p *Packet, buf []PortRequest) []PortRequest
	// AtSource runs once when p is generated, before it is queued, letting
	// source-routed decisions (UGAL, FAvORS non-minimal) pick p's
	// intermediate router. r is the source router. p is the network's
	// scratch: it carries SrcRouter, DstRouter, VNet and Length, with
	// Intermediate -1, and nothing else yet. AtSource may read those and
	// set only p.Intermediate, the one field queued with the packet, and it
	// must not keep p.
	AtSource(r *Router, p *Packet)
}

// BaseRouting provides a no-op AtSource for algorithms without
// source-time decisions.
type BaseRouting struct{}

// AtSource implements RoutingAlgorithm with no source-time decision.
func (BaseRouting) AtSource(*Router, *Packet) {}
