package exp

import "repro/internal/power"

// Fig10 is the router-area comparison of the deadlock-freedom designs,
// normalised to the west-first baseline (Fig. 10). It evaluates the
// analytical area model at the paper's design points: the west-first
// router (no scheme hardware), the same router with SPIN's modules, the
// Static Bubble router, and the escape-VC router (one extra VC plus escape
// state).
func Fig10() *Table {
	t := power.Default()
	area := func(vcs int, k power.SchemeKind) float64 {
		return power.RouterArea(t, power.MeshRouter(vcs, k)).Total()
	}
	base := area(1, power.SchemeNone)
	res := &Table{
		Title:   "Fig. 10: router area normalised to West-first (mesh design points)",
		Columns: []string{"design", "area", "vs_westfirst"},
	}
	for _, d := range []struct {
		name string
		area float64
	}{
		{"westfirst", base},
		{"spin", area(1, power.SchemeSPIN)},
		{"static_bubble", area(1, power.SchemeStaticBubble)},
		{"escape_vc", area(2, power.SchemeEscapeVC)},
	} {
		res.Rows = append(res.Rows, Row{Key: []string{d.name}, Values: []float64{d.area, d.area / base}})
	}
	return res
}

// Costs reports the headline VC-cost savings (Sec. VI-C/D): 1-VC router
// area and power relative to 2-VC and 3-VC, as fractions, for the mesh and
// dragonfly design points.
func Costs() *Table {
	t := power.Default()
	row := func(label string, mk func(int, power.SchemeKind) power.RouterConfig) Row {
		a1 := power.RouterArea(t, mk(1, power.SchemeNone)).Total()
		a2 := power.RouterArea(t, mk(2, power.SchemeNone)).Total()
		a3 := power.RouterArea(t, mk(3, power.SchemeNone)).Total()
		p1 := power.RouterPower(t, mk(1, power.SchemeNone), 0.2)
		p3 := power.RouterPower(t, mk(3, power.SchemeNone), 0.2)
		return Row{Key: []string{label}, Values: []float64{1 - a1/a3, 1 - a1/a2, 1 - p1/p3}}
	}
	return &Table{
		Title:   "VC cost: savings of a 1-VC router (fractions)",
		Columns: []string{"topology", "area_save_1v3", "area_save_1v2", "power_save_1v3"},
		Rows:    []Row{row("mesh", power.MeshRouter), row("dragonfly", power.DragonflyRouter)},
	}
}
