package sim_test

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	spin "repro"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// eventDigest is a Probe that folds the event stream, in order, into an
// FNV-1a hash of every field of every event (eventFields of them): the
// integers and the SM kind's length as eight bytes each, then its bytes.
type eventDigest struct {
	sum    uint64
	events int
	buf    []byte
}

const eventFields = 13

func (d *eventDigest) Event(e sim.Event) {
	if d.events == 0 {
		d.sum = 14695981039346656037 // FNV-1a's offset basis
	}
	b := d.buf[:0]
	for _, v := range [eventFields]uint64{uint64(e.Cycle), uint64(e.Kind), uint64(e.Router), uint64(e.Port),
		uint64(e.VC), e.Packet, uint64(e.Src), uint64(e.Dst), uint64(e.VNet), uint64(e.Len), e.Tag, uint64(e.Arg), uint64(len(e.SM))} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	d.buf = append(b, e.SM...)
	for _, c := range d.buf {
		d.sum = (d.sum ^ uint64(c)) * 1099511628211
	}
	d.events++
}

// runRecord is everything TestResetEqualsNew compares between a fresh build
// and a rewound one.
type runRecord struct {
	Stats                            sim.Stats
	Links                            sim.LinkUtilisation
	Now, MaxStall, MaxSpell, Firings int64
	InFlight, Queued, Events         int
	Digest                           uint64
}

// watchAndRun attaches a checker (bounds no run reaches) and a digest of
// every event, audits the network as it stands — the checker's full audit
// knows every worklist and snapshot rule, so read at cycle 0 it is the oracle
// for "Reset forgot something" — then runs and records.
func watchAndRun(t *testing.T, net *sim.Network, cycles int) runRecord {
	t.Helper()
	if net.Now() != 0 {
		t.Fatalf("run starts at cycle %d", net.Now())
	}
	chk := net.AttachChecker(sim.CheckOptions{StallBound: 1 << 40, RecoveryBound: 1 << 40})
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("audit at cycle 0: %v", vs)
	}
	if n := reflect.TypeOf(sim.Event{}).NumField(); n != eventFields {
		t.Fatalf("sim.Event has %d fields, eventDigest folds %d", n, eventFields)
	}
	var d eventDigest
	net.AddObserver(sim.AllEvents, &d)
	net.Run(int64(cycles))
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("after %d cycles: %v", cycles, vs)
	}
	return runRecord{Stats: *net.Stats(), Links: net.LinkUtilisation(), Now: net.Now(),
		MaxStall: chk.MaxStall(), MaxSpell: chk.MaxDeadlockSpell(), Firings: chk.OracleFirings(),
		InFlight: net.InFlight(), Queued: net.QueuedPackets(), Events: d.events, Digest: d.sum}
}

// TestResetEqualsNew: a network that has been run hard under another seed
// and then Reset behaves, event for event, like one built from nothing. The
// dirtying run saturates the network with everything that can watch it
// attached (checker, telemetry, flight recorder, observers), so that flits,
// in-flight SMs, frozen and spinning VCs, backlogged NICs and every
// attachment are there for Reset to forget one of. The scenarios are
// TestStallIndexParity's (every scheme on the topologies it runs on, among
// them static_bubble's forced routing and escape_vc) plus a closed loop, a
// Dally-ladder UGAL and a 3-vnet dragonfly.
//
// Each scenario then makes one more stop, for who owns a packet across a
// Reset. A second dirtying run ends with packets in VCs, on links and in NIC
// queues: Reset must put every one of them back on the free list, the run
// after it must match the fresh build cycle for cycle without allocating a
// packet, and a pooled inject must cost no allocation.
func TestResetEqualsNew(t *testing.T) {
	type scenario struct {
		name   string
		cfg    spin.Config
		cycles int
		// retraffic, when set, swaps the generator after New and after Reset,
		// as harness.Scenario.Sim does for a workload block.
		retraffic func(*testing.T, *spin.Simulation, spin.Config)
	}
	closedLoop := func(t *testing.T, s *spin.Simulation, cfg spin.Config) {
		pat, err := traffic.ByName(cfg.Traffic, s.Topology())
		if err != nil {
			t.Fatal(err)
		}
		nc := s.Network().Config()
		gen, err := workload.Build(workload.Spec{Mode: "closed", Window: 4, Think: 8}, pat, cfg.Rate, cfg.DataFrac,
			nc.VNets, s.Topology().NumTerminals(), cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		s.Network().SetTraffic(gen)
	}
	scenarios := []scenario{
		{"closed_loop/mesh", spin.Config{Topology: "mesh:8x8", Routing: "min_adaptive", Scheme: "spin", VNets: 2, VCsPerVNet: 2, Traffic: "uniform_random", Rate: 0.3}, 2000, closedLoop},
		{"none/dragonfly_ugal_ladder", spin.Config{Topology: "dragonfly:4,4,4,16", Routing: "ugal_ladder", VCsPerVNet: 3, Traffic: "tornado", Rate: 0.25}, 1200, nil},
		{"spin/dragonfly_3vnet", spin.Config{Topology: "dragonfly:4,4,4,16", Routing: "dfly_min", Scheme: "spin", VNets: 3, VCsPerVNet: 1, Traffic: "bit_complement", Rate: 0.30}, 1500, nil},
	}
	for _, sc := range stallScenarios {
		scenarios = append(scenarios, scenario{sc.name, sc.cfg, sc.cycles, nil})
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			build := func(s *spin.Simulation, cfg spin.Config) {
				t.Helper()
				if err := s.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				if sc.retraffic != nil {
					sc.retraffic(t, s, cfg)
				}
			}
			cfg := sc.cfg
			cfg.Seed, cfg.Warmup = 29, int64(sc.cycles/10)
			fresh := new(spin.Simulation)
			build(fresh, cfg)
			want := watchAndRun(t, fresh.Network(), sc.cycles)
			if want.Stats.Ejected == 0 || want.Events == 0 {
				t.Fatal("scenario delivered nothing")
			}

			dirty := cfg
			dirty.Seed, dirty.Rate, dirty.Warmup = 7, 0.9, 0
			if strings.HasPrefix(cfg.Topology, "irregular") {
				// The seed picks the faulty links: another one is another
				// topology (TestSeededTopologyRebuilt), not a rewind.
				dirty.Seed = cfg.Seed
			}
			s := new(spin.Simulation)
			build(s, dirty)
			net := s.Network()
			net.AttachChecker(sim.CheckOptions{StallBound: 1 << 40, RecoveryBound: 1 << 40})
			net.AttachTelemetry(sim.TelemetryOptions{Hist: true, Window: 100})
			net.AttachFlightRecorder(64)
			net.AddObserver(sim.AllEvents, new(eventDigest))
			ejected := 0
			net.AddObserver(sim.MaskOf(sim.EvPacketEject), sim.ProbeFunc(func(sim.Event) { ejected++ }))
			net.Run(3000)
			if net.InFlight() == 0 || net.QueuedPackets() == 0 || ejected == 0 {
				t.Fatalf("dirtying run left %d packets in flight, %d queued, %d ejected: nothing to forget", net.InFlight(), net.QueuedPackets(), ejected)
			}

			// In the 1-VC SPIN regime, stop inside a recovery: frozen and
			// spinning VCs are state too.
			held := func() (k int) {
				for r := 0; r < net.NumRouters(); r++ {
					rt := net.Router(r)
					for slot := 0; slot < rt.Radix()*rt.VCsPerPort(); slot++ {
						if v := rt.VCAt(slot); v.Frozen() || v.SpinInProgress() {
							k++
						}
					}
				}
				return k
			}
			if sc.name == "spin/torus_1vc" {
				for extra := 0; held() == 0; extra++ {
					if extra == 5000 {
						t.Fatal("dirtying run never froze a VC")
					}
					net.Step()
				}
			}
			t.Logf("dirtied: %d in flight, %d queued, %d frozen or spinning VCs", net.InFlight(), net.QueuedPackets(), held())
			build(s, cfg)
			if s.Network() != net {
				t.Fatal("Reset to the same shape built a new network: the rewind was not taken")
			}
			if net.Checker() != nil || net.Telemetry() != nil || net.FlightRecorder() != nil {
				t.Fatal("Reset kept something that watches the network attached")
			}
			observerSaw := ejected
			got := watchAndRun(t, net, sc.cycles)
			if ejected != observerSaw {
				t.Fatal("Reset kept an observer")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rewound run differs from a fresh build's:\nrewound %+v\nfresh   %+v", got, want)
			}
			t.Logf("%d packets, %d spins, %d events, digest %016x", got.Stats.Ejected, got.Stats.Spins, got.Events, got.Digest)

			build(s, dirty)
			net.Run(1500)
			for extra := 0; sim.FlitsOnLinks(net) == 0 && extra < 5000; extra++ {
				net.Step() // a jammed network moves in bursts: stop inside one
			}
			if net.InFlight() == 0 || net.QueuedPackets() == 0 || sim.FlitsOnLinks(net) == 0 {
				t.Fatalf("second dirtying run left %d packets in flight, %d queued, %d flits on links", net.InFlight(), net.QueuedPackets(), sim.FlitsOnLinks(net))
			}
			build(s, cfg)
			free, owned := sim.PooledPackets(net)
			if free != owned || owned < net.InFlight()+net.QueuedPackets() || owned == 0 {
				t.Fatalf("Reset put %d of the network's %d packets back on the free list", free, owned)
			}
			if got := watchAndRun(t, net, sc.cycles); !reflect.DeepEqual(got, want) {
				t.Fatalf("run on reclaimed packets differs from a fresh build's:\nrewound %+v\nfresh   %+v", got, want)
			}
			if _, after := sim.PooledPackets(net); after != owned {
				t.Fatalf("the run after a Reset allocated packets: %d owned, %d before", after, owned)
			}
			build(s, cfg)
			spec := sim.PacketSpec{Dst: 1, Length: 1}
			sim.InjectPooled(net, 0, spec) // the NIC queue's first slot
			if avg := testing.AllocsPerRun(20, func() { sim.InjectPooled(net, 0, spec) }); avg != 0 {
				t.Fatalf("a pooled inject after Reset allocates %.1f objects", avg)
			}
		})
	}
}

// TestResetShapeMismatch: a config of another shape is refused before
// anything is touched — the network keeps running where it was — and the
// facade answers it by building a network of the new shape.
func TestResetShapeMismatch(t *testing.T) {
	cfg := spin.Config{Topology: "mesh:4x4", Routing: "min_adaptive", Scheme: "spin", VCsPerVNet: 2, Traffic: "uniform_random", Rate: 0.2, Seed: 3}
	s, err := spin.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := s.Network()
	net.Run(500)
	before := *net.Stats()
	other, err := spin.New(spin.Config{Topology: "mesh:4x4", Routing: "min_adaptive", VCsPerVNet: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*sim.Config){
		"topology value": func(c *sim.Config) { c.Topology = other.Topology() },
		"vnets":          func(c *sim.Config) { c.VNets = 2 },
		"vcs per vnet":   func(c *sim.Config) { c.VCsPerVNet = 3 },
		"vc depth":       func(c *sim.Config) { c.VCDepth = 8 },
	} {
		nc := net.Config()
		mutate(&nc)
		if err := net.Reset(nc); err == nil {
			t.Fatalf("Reset accepted another %s", name)
		}
	}
	if net.Now() != 500 || !reflect.DeepEqual(*net.Stats(), before) {
		t.Fatal("a refused Reset changed the network")
	}
	wider := cfg
	wider.VCsPerVNet = 3
	if err := s.Reset(wider); err != nil {
		t.Fatal(err)
	}
	if s.Network() == net {
		t.Fatal("the facade rewound a network of another shape")
	}
	fresh, err := spin.New(wider)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := watchAndRun(t, s.Network(), 800), watchAndRun(t, fresh.Network(), 800); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt run differs from a fresh build's:\nrebuilt %+v\nfresh   %+v", got, want)
	}
}
