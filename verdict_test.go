package spin

import (
	"testing"

	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// dropEscape is EscapeVC without its escape request at one router.
type dropEscape struct {
	*routing.EscapeVC
	at int
}

func (d dropEscape) Candidates(router, inPort int, p *sim.Packet, buf []sim.PortRequest) []sim.PortRequest {
	buf = d.EscapeVC.Candidates(router, inPort, p, buf)
	if router == d.at {
		buf = buf[:len(buf)-1] // the escape request is last
	}
	return buf
}

// TestDuatoNeedsEscapeEverywhere: Duato's theorem holds only when every
// state the routing reaches can request an escape VC. EscapeVC's escape
// sub-network stays acyclic when one router drops its escape request, but
// packets there can no longer reach it, so the verdict is needs-recovery.
func TestDuatoNeedsEscapeEverywhere(t *testing.T) {
	topo, err := BuildTopology("mesh:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := LookupRouting("escape_vc")
	rt := &routing.EscapeVC{Mesh: topo.(*topology.Mesh), VCs: 2}
	if got, g := verdict(topo, 2, rt, e.Escape); got != Duato {
		t.Fatalf("escape_vc: %s (%s), want Duato", got, g.Describe())
	}
	dropped := dropEscape{rt, 5}
	if !cdg.Build(topo, 2, dropped, e.Escape).Acyclic() {
		t.Fatal("dropping escape requests made the escape sub-network cyclic")
	}
	if got, g := verdict(topo, 2, dropped, e.Escape); got != NeedsRecovery {
		t.Errorf("escape_vc without an escape at router 5: %s (%s), want %s", got, g.Describe(), NeedsRecovery)
	}
}
