// Package power is an analytical router area/energy model standing in for
// the paper's Nangate 15 nm RTL synthesis (DESIGN.md records the
// substitution). All numbers are relative units; the model's purpose is
// the paper's *relative* claims:
//
//   - input buffers dominate router area, so dropping from 3 VCs to 1
//     saves ~50% area and power (mesh and dragonfly);
//   - SPIN's modules (FSM, probe/move managers, loop buffer) cost a few
//     percent of a router;
//   - Static Bubble's recovery buffer and control cost ~10%;
//   - an escape-VC design pays a whole extra VC of buffering plus escape
//     routing state.
package power

import "math"

// Tech holds the technology/circuit constants (relative units per bit).
type Tech struct {
	// BufAreaPerBit is flip-flop buffer area per bit.
	BufAreaPerBit float64
	// XbarAreaPerPortBit models a mux-based crossbar: area per output
	// port per bit of datapath width.
	XbarAreaPerPortBit float64
	// AllocAreaPerVC is switch/VC-allocator area per VC arbiter input.
	AllocAreaPerVC float64
	// Energy per bit per event (relative).
	EBufWriteBit, EBufReadBit, EXbarBit, ELinkBit float64
	// LeakPerArea is static power per area unit per cycle.
	LeakPerArea float64
	// ClockPerBufBit is clock-tree + register idle power per buffer bit
	// per cycle. Register-based NoC buffers burn clock power whether or
	// not flits flow, which is why dropping VCs halves router power in
	// the paper's RTL numbers.
	ClockPerBufBit float64
}

// defaultTech is calibrated so that the evaluated design points reproduce
// the paper's reported ratios (1 VC vs 3 VC: ~52% mesh / ~53% dragonfly
// area, ~50%/55% power; SPIN ≈ 4% of a 3-VC west-first mesh router).
var defaultTech = Tech{
	BufAreaPerBit:      1.0,
	XbarAreaPerPortBit: 4.25,
	AllocAreaPerVC:     32,
	EBufWriteBit:       1.0,
	EBufReadBit:        0.8,
	EXbarBit:           0.6,
	ELinkBit:           1.3,
	LeakPerArea:        0.0002,
	ClockPerBufBit:     0.1,
}

// Default returns the calibrated technology constants by value. Every
// caller gets its own copy, so concurrent experiment jobs can read (or
// locally tweak) the constants without racing on shared state.
func Default() Tech { return defaultTech }

// SchemeKind enumerates the deadlock-freedom hardware variants whose
// overhead the model charges.
type SchemeKind int

// Scheme kinds.
const (
	SchemeNone SchemeKind = iota
	SchemeSPIN
	SchemeStaticBubble
	SchemeEscapeVC
)

// RouterConfig describes one router design point.
type RouterConfig struct {
	Radix      int // ports
	VCs        int // total VCs per input port (vnets × VCs/vnet)
	VCDepth    int // flits
	FlitBits   int
	NumRouters int // network size (loop-buffer sizing)
	Scheme     SchemeKind
}

// Area breaks a router's area into components (relative units).
type Area struct {
	Buffers, Crossbar, Allocators, SchemeExtra float64
}

// Total sums the components.
func (a Area) Total() float64 { return a.Buffers + a.Crossbar + a.Allocators + a.SchemeExtra }

// RouterArea evaluates the model for one design point.
func RouterArea(t Tech, c RouterConfig) Area {
	var a Area
	bits := float64(c.FlitBits)
	a.Buffers = t.BufAreaPerBit * float64(c.Radix*c.VCs*c.VCDepth) * bits
	a.Crossbar = t.XbarAreaPerPortBit * float64(c.Radix) * bits
	a.Allocators = t.AllocAreaPerVC * float64(c.Radix*c.VCs)
	a.SchemeExtra = schemeArea(t, c)
	return a
}

// schemeArea charges the per-scheme control hardware.
func schemeArea(t Tech, c RouterConfig) float64 {
	switch c.Scheme {
	case SchemeSPIN:
		// Loop buffer: log2(radix) bits per router of the network
		// (Table II), plus the counter FSM and the probe/move managers.
		loopBits := math.Ceil(math.Log2(float64(c.Radix))) * float64(c.NumRouters)
		const fsm, probeMgr, moveMgr = 120, 90, 90
		return t.BufAreaPerBit*loopBits + fsm + probeMgr + moveMgr
	case SchemeStaticBubble:
		// One packet-sized recovery buffer plus activation FSM, detection
		// counters and bubble-placement control.
		buf := t.BufAreaPerBit * float64(c.VCDepth*c.FlitBits)
		const fsm, control = 120, 470
		return buf + fsm + control
	case SchemeEscapeVC:
		// Escape routing tables/logic on top of the extra VC (the VC
		// itself is counted in Buffers via the VCs field).
		return 64 * float64(c.Radix)
	}
	return 0
}

// bufferBits reports the router's total buffer storage.
func bufferBits(c RouterConfig) float64 {
	return float64(c.Radix * c.VCs * c.VCDepth * c.FlitBits)
}

// controlBits models the VC-count-independent clocked state: datapath
// pipeline registers, allocator and routing state — roughly one VC's
// worth of storage per port. It is what keeps the 1-VC router at ~50%
// (not ~33%) of the 3-VC router's power, matching the paper's RTL
// numbers.
func controlBits(c RouterConfig) float64 {
	return float64(c.Radix * c.VCDepth * c.FlitBits)
}

// RouterPower reports clock + leakage + per-flit dynamic power at a given
// flit throughput (flits per cycle through the router).
func RouterPower(t Tech, c RouterConfig, flitsPerCycle float64) float64 {
	area := RouterArea(t, c)
	static := t.LeakPerArea*area.Total() + t.ClockPerBufBit*(bufferBits(c)+controlBits(c))
	bits := float64(c.FlitBits)
	perFlit := (t.EBufWriteBit + t.EBufReadBit + t.EXbarBit + t.ELinkBit) * bits
	return static + perFlit*flitsPerCycle
}

// FlitEventEnergy reports the dynamic energy of the four per-flit events,
// for combining with simulator counters.
type FlitEventEnergy struct {
	BufWrite, BufRead, Xbar, Link float64
}

// Events evaluates per-flit event energies for a flit width.
func Events(t Tech, flitBits int) FlitEventEnergy {
	b := float64(flitBits)
	return FlitEventEnergy{
		BufWrite: t.EBufWriteBit * b,
		BufRead:  t.EBufReadBit * b,
		Xbar:     t.EXbarBit * b,
		Link:     t.ELinkBit * b,
	}
}

// NetworkEnergy combines simulator activity counters with the model:
// dynamic event energy plus clock and leakage over routers × cycles.
func NetworkEnergy(t Tech, c RouterConfig, bufWrites, bufReads, xbars, links, cycles int64) float64 {
	e := Events(t, c.FlitBits)
	dyn := e.BufWrite*float64(bufWrites) + e.BufRead*float64(bufReads) +
		e.Xbar*float64(xbars) + e.Link*float64(links)
	static := (t.LeakPerArea*RouterArea(t, c).Total() + t.ClockPerBufBit*(bufferBits(c)+controlBits(c))) *
		float64(c.NumRouters) * float64(cycles)
	return dyn + static
}

// EDP is the energy-delay product given network energy and a delay metric
// (average packet latency, per the paper's network EDP figure).
func EDP(energy, delay float64) float64 { return energy * delay }

// MeshRouter returns the design point of an 8x8-mesh router (radix 5,
// 128-bit links, 5-flit VCs).
func MeshRouter(vcs int, scheme SchemeKind) RouterConfig {
	return RouterConfig{Radix: 5, VCs: vcs, VCDepth: 5, FlitBits: 128, NumRouters: 64, Scheme: scheme}
}

// DragonflyRouter returns the design point of the 1024-node dragonfly
// router (p=4, a=8, h=4: radix 15).
func DragonflyRouter(vcs int, scheme SchemeKind) RouterConfig {
	return RouterConfig{Radix: 15, VCs: vcs, VCDepth: 5, FlitBits: 128, NumRouters: 256, Scheme: scheme}
}
