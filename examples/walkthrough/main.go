// Walkthrough: reconstructs the paper's Fig. 4 step by step. Four packets
// are table-routed into a square dependency cycle on a 2x2 mesh; the
// output traces SPIN's phases — deadlock detection (probe), spin-cycle
// announcement (move), the synchronized movement itself, and delivery.
//
// This example reaches below the public facade into the simulator and the
// SPIN agent internals so the FSM transitions are visible.
package main

import (
	"fmt"
	"log"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/topology"
)

func main() {
	mesh, err := topology.NewMesh(2, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	// Clockwise ring: 0 -E-> 1 -N-> 3 -W-> 2 -S-> 0. Each packet travels
	// two hops along the ring, so after its first hop it waits for the
	// buffer its successor holds: a genuine routing deadlock.
	ring := []int{0, 1, 3, 2}
	ports := []int{
		topology.MeshPort(topology.East),
		topology.MeshPort(topology.North),
		topology.MeshPort(topology.West),
		topology.MeshPort(topology.South),
	}
	table := &routing.Table{}
	for i := range ring {
		dst := ring[(i+2)%len(ring)]
		table.Set(ring[i], dst, ports[i])
		table.Set(ring[(i+1)%len(ring)], dst, ports[(i+1)%len(ring)])
	}

	scheme := spin.New(spin.Config{TDD: 16})
	net, err := sim.NewNetwork(sim.Config{
		Topology:   mesh,
		Routing:    table,
		Scheme:     scheme,
		VCsPerVNet: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	injected := map[uint64]*sim.Packet{}
	net.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(e sim.Event) {
		p := injected[e.Packet]
		fmt.Printf("cycle %3d | %v delivered (%d hops)\n", e.Cycle, p, p.Hops)
	}))
	for i := range ring {
		p := net.InjectPacket(ring[i], sim.PacketSpec{Dst: ring[(i+2)%len(ring)], Length: 2})
		injected[p.ID] = p
		fmt.Printf("cycle %3d | injected %v\n", net.Now(), p)
	}

	// Trace FSM states and recovery counters as they change.
	states := make([]string, mesh.NumRouters())
	for i := range states {
		states[i] = "off"
	}
	lastSpins := int64(0)
	lastOracle := false
	for cycle := 0; cycle < 200; cycle++ {
		net.Step()
		for i, agent := range scheme.Agents() {
			if s := agent.State(); s != states[i] {
				fmt.Printf("cycle %3d | router %d FSM: %s -> %s\n", net.Now(), i, orInit(states[i]), s)
				states[i] = s
			}
		}
		if dl := net.Deadlocked(); dl != lastOracle {
			if dl {
				fmt.Printf("cycle %3d | oracle: cyclic buffer dependency present (deadlock)\n", net.Now())
			} else {
				fmt.Printf("cycle %3d | oracle: deadlock gone\n", net.Now())
			}
			lastOracle = dl
		}
		if s := net.Stats().Spins; s != lastSpins {
			fmt.Printf("cycle %3d | SPIN: synchronized movement #%d executed\n", net.Now(), s)
			lastSpins = s
		}
		if net.Stats().Ejected == 4 {
			break
		}
	}
	st := net.Stats()
	fmt.Printf("\nsummary: %d probes, %d recoveries, %d spins, %d/%d packets delivered\n",
		st.Counter("probes_sent"), st.Counter("recoveries"), st.Spins, st.Ejected, st.Injected)
}

func orInit(s string) string {
	if s == "" {
		return "off"
	}
	return s
}
