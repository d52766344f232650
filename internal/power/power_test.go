package power

import "testing"

func ratio(a, b float64) float64 { return a / b }

// The 1-VC mesh router should be ~52% (36%) smaller than a 3-VC (2-VC)
// router — the paper's headline cost claim.
func TestMeshAreaSavings(t *testing.T) {
	a1 := RouterArea(Default(), MeshRouter(1, SchemeNone)).Total()
	a2 := RouterArea(Default(), MeshRouter(2, SchemeNone)).Total()
	a3 := RouterArea(Default(), MeshRouter(3, SchemeNone)).Total()
	if s := 1 - ratio(a1, a3); s < 0.45 || s > 0.60 {
		t.Fatalf("1VC vs 3VC mesh area saving = %.2f, want ~0.52", s)
	}
	if s := 1 - ratio(a1, a2); s < 0.28 || s > 0.44 {
		t.Fatalf("1VC vs 2VC mesh area saving = %.2f, want ~0.36", s)
	}
}

func TestDragonflyAreaSavings(t *testing.T) {
	a1 := RouterArea(Default(), DragonflyRouter(1, SchemeNone)).Total()
	a3 := RouterArea(Default(), DragonflyRouter(3, SchemeNone)).Total()
	if s := 1 - ratio(a1, a3); s < 0.45 || s > 0.62 {
		t.Fatalf("1VC vs 3VC dragonfly area saving = %.2f, want ~0.53", s)
	}
}

// SPIN's modules should cost a few percent of a 3-VC west-first router
// (the paper reports 4%).
func TestSPINOverheadSmall(t *testing.T) {
	base := RouterArea(Default(), MeshRouter(3, SchemeNone)).Total()
	with := RouterArea(Default(), MeshRouter(3, SchemeSPIN)).Total()
	over := (with - base) / base
	if over < 0.02 || over > 0.07 {
		t.Fatalf("SPIN area overhead = %.3f, want ~0.04", over)
	}
}

// Scheme overhead ordering of Fig. 10: escape-VC >> static bubble > SPIN.
func TestFig10Ordering(t *testing.T) {
	wf := RouterArea(Default(), MeshRouter(1, SchemeNone)).Total()
	spin := RouterArea(Default(), MeshRouter(1, SchemeSPIN)).Total()
	sb := RouterArea(Default(), MeshRouter(1, SchemeStaticBubble)).Total()
	// Escape-VC needs one more VC than the baseline plus escape state.
	esc := RouterArea(Default(), MeshRouter(2, SchemeEscapeVC)).Total()
	if !(spin < sb && sb < esc) {
		t.Fatalf("overhead ordering broken: spin=%.0f sb=%.0f escape=%.0f (wf=%.0f)", spin, sb, esc, wf)
	}
	if spin/wf > 1.10 {
		t.Fatalf("SPIN relative area %.2f too high", spin/wf)
	}
	if esc/wf < 1.4 {
		t.Fatalf("escape-VC relative area %.2f too low (paper: ~2x)", esc/wf)
	}
}

func TestPowerSavings(t *testing.T) {
	// At equal load, the 1-VC router burns roughly half the power of the
	// 3-VC one (leakage tracks area; the paper reports 50%).
	p1 := RouterPower(Default(), MeshRouter(1, SchemeNone), 0)
	p3 := RouterPower(Default(), MeshRouter(3, SchemeNone), 0)
	if s := 1 - p1/p3; s < 0.4 || s > 0.65 {
		t.Fatalf("1VC vs 3VC static power saving = %.2f, want ~0.5", s)
	}
	// Dynamic power grows with throughput.
	lo := RouterPower(Default(), MeshRouter(1, SchemeNone), 0.1)
	hi := RouterPower(Default(), MeshRouter(1, SchemeNone), 0.9)
	if hi <= lo {
		t.Fatal("dynamic power not increasing with load")
	}
}

func TestNetworkEnergyMonotonic(t *testing.T) {
	c := MeshRouter(2, SchemeSPIN)
	e1 := NetworkEnergy(Default(), c, 1000, 1000, 1000, 1000, 10000)
	e2 := NetworkEnergy(Default(), c, 2000, 2000, 2000, 2000, 10000)
	if e2 <= e1 {
		t.Fatal("energy not monotonic in activity")
	}
	if EDP(e1, 20) >= EDP(e1, 30) {
		t.Fatal("EDP not monotonic in delay")
	}
}

func TestAreaComponents(t *testing.T) {
	a := RouterArea(Default(), MeshRouter(3, SchemeSPIN))
	if a.Buffers <= 0 || a.Crossbar <= 0 || a.Allocators <= 0 || a.SchemeExtra <= 0 {
		t.Fatalf("missing component: %+v", a)
	}
	if a.Buffers < a.Crossbar {
		t.Fatal("buffers should dominate crossbar in a 3-VC router")
	}
}

func TestDragonflyLoopBufferScaling(t *testing.T) {
	// The SPIN module cost grows with log2(radix)·N: the dragonfly router
	// (radix 15, 256 routers) pays a larger loop buffer than the mesh
	// router (radix 5, 64 routers), but it stays a small fraction.
	mesh := RouterArea(Default(), MeshRouter(3, SchemeSPIN))
	dfly := RouterArea(Default(), DragonflyRouter(3, SchemeSPIN))
	if dfly.SchemeExtra <= mesh.SchemeExtra {
		t.Fatalf("dragonfly SPIN modules (%.0f) should exceed mesh (%.0f)", dfly.SchemeExtra, mesh.SchemeExtra)
	}
	if frac := dfly.SchemeExtra / dfly.Total(); frac > 0.05 {
		t.Fatalf("dragonfly SPIN module fraction %.3f too large", frac)
	}
}

func TestSchemeNoneHasNoExtra(t *testing.T) {
	if RouterArea(Default(), MeshRouter(2, SchemeNone)).SchemeExtra != 0 {
		t.Fatal("SchemeNone charged extra area")
	}
}

// Default returns the constants by value: callers can mutate their copy
// freely.
func TestDefaultAccessor(t *testing.T) {
	if Default() != defaultTech {
		t.Fatal("Default() does not return the calibrated constants")
	}
	local := Default()
	local.BufAreaPerBit = 99
	if Default().BufAreaPerBit == 99 {
		t.Fatal("mutating a Default() copy leaked into the shared constants")
	}
}
