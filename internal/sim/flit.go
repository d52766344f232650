// Package sim is a cycle-accurate simulator of virtual-channel
// interconnection networks with virtual-cut-through flow control. It is the
// substrate the SPIN reproduction runs on, standing in for gem5/Garnet2.0:
// input-queued routers with per-port virtual channels, credit-style
// buffer-space accounting, single-cycle routers, pipelined multi-cycle
// links, stall-free ejection, and a special-message (SM) layer that shares
// links with flits at higher priority — exactly the transport SPIN's
// distributed protocol requires.
//
// Fidelity note (recorded in DESIGN.md): buffer-space availability is
// sampled directly rather than through delayed credit messages. This is
// the standard zero-delay-credit simplification; it shifts all
// configurations' absolute throughput identically and preserves the
// relative comparisons the paper reports.
package sim

import "fmt"

// Packet is a network packet. A packet of Length flits occupies one
// virtual channel at a time under virtual cut-through.
type Packet struct {
	// ID is unique per simulation.
	ID uint64
	// Src and Dst are terminal (NIC) ids.
	Src, Dst int
	// SrcRouter and DstRouter are the attached routers.
	SrcRouter, DstRouter int
	// VNet is the virtual network (message class) the packet travels in.
	VNet int
	// Length is the packet size in flits.
	Length int
	// GenCycle is when the traffic source created the packet; InjectCycle
	// when its head flit entered the network; EjectCycle when its tail
	// flit left.
	GenCycle, InjectCycle, EjectCycle int64
	// Intermediate is the misroute-via router for non-minimal routing
	// (-1 when routed minimally). Phase is 0 en route to the intermediate
	// router and 1 afterwards.
	Intermediate int
	Phase        int
	// GlobalHops counts dragonfly global-channel traversals (Dally VC
	// ladders key off it).
	GlobalHops int
	// Hops counts router-to-router traversals; Misroutes counts hops that
	// did not reduce the distance to the (phase-local) destination.
	Hops, Misroutes int
	// Checksum is an end-to-end payload integrity token.
	Checksum uint64

	// pooled marks packets owned by the engine's free list: drawn when a
	// traffic source's queued record reaches the front of its NIC and
	// recycled on tail ejection.
	pooled bool
}

// checksumFor derives the expected payload token for a packet identity.
func checksumFor(id uint64, src, dst, length int) uint64 {
	h := id*0x9e3779b97f4a7c15 ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(length)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// RouteDst reports the router the packet is currently steering toward:
// the intermediate router in phase 0 of a non-minimal route, the final
// destination router otherwise.
func (p *Packet) RouteDst() int {
	if p.Intermediate >= 0 && p.Phase == 0 {
		return p.Intermediate
	}
	return p.DstRouter
}

// Arrive advances p's route state as its head crosses a link into router
// r: a global link (GlobalLink) adds a global hop, and reaching its
// intermediate ends a Valiant packet's first phase. The engine calls it on
// every delivery and internal/cdg's walk on every channel it adds, so the
// static analysis tracks GlobalHops and Phase as the simulator does.
func (p *Packet) Arrive(r int, global bool) {
	if global {
		p.GlobalHops++
	}
	if p.Intermediate >= 0 && p.Phase == 0 && r == p.Intermediate {
		p.Phase = 1
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d len=%d vnet=%d", p.ID, p.Src, p.Dst, p.Length, p.VNet)
}

// Flit is one flow-control unit of a packet. Seq 0 is the head flit;
// Seq Length-1 the tail. Single-flit packets are head and tail at once.
type Flit struct {
	Pkt *Packet
	Seq int
}

// IsHead reports whether f is its packet's head flit.
func (f Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether f is its packet's tail flit.
func (f Flit) IsTail() bool { return f.Seq == f.Pkt.Length-1 }

// PacketSpec describes a packet a traffic generator asks a NIC to inject.
type PacketSpec struct {
	Dst    int // destination terminal
	Length int // flits
	VNet   int
}
