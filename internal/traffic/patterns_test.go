package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func mesh8(t *testing.T) *topology.Mesh {
	t.Helper()
	m, err := topology.NewMesh(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPatternsAreValidDestinations(t *testing.T) {
	m := mesh8(t)
	rng := rand.New(rand.NewSource(1))
	names := []string{"uniform_random", "bit_complement", "bit_reverse", "bit_rotation", "shuffle", "neighbor", "transpose", "tornado"}
	for _, name := range names {
		p, err := ByName(name, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for src := 0; src < 64; src++ {
			for trial := 0; trial < 3; trial++ {
				d := p.Dest(src, rng)
				if d < 0 || d >= 64 {
					t.Fatalf("%s: Dest(%d) = %d out of range", name, src, d)
				}
			}
		}
	}
}

func TestPermutationPatternsAreBijective(t *testing.T) {
	m := mesh8(t)
	for _, name := range []string{"bit_complement", "bit_reverse", "bit_rotation", "shuffle", "neighbor", "transpose"} {
		p, _ := ByName(name, m)
		seen := map[int]bool{}
		for src := 0; src < 64; src++ {
			d := p.Dest(src, nil)
			if seen[d] {
				t.Fatalf("%s: destination %d hit twice", name, d)
			}
			seen[d] = true
		}
	}
}

func TestBitComplementValues(t *testing.T) {
	m := mesh8(t)
	p, _ := ByName("bit_complement", m)
	if d := p.Dest(0, nil); d != 63 {
		t.Fatalf("complement of 0 = %d, want 63", d)
	}
	if d := p.Dest(21, nil); d != 42 {
		t.Fatalf("complement of 21 = %d, want 42", d)
	}
}

func TestTransposeOnSquareMesh(t *testing.T) {
	m := mesh8(t)
	p, _ := Transpose(m)
	src := m.RouterAt(2, 5)
	want := m.RouterAt(5, 2)
	if d := p.Dest(src, nil); d != want {
		t.Fatalf("transpose(%d) = %d, want %d", src, d, want)
	}
}

func TestTornadoHalfway(t *testing.T) {
	m := mesh8(t)
	p := Tornado(m)
	// Router (0,0): halfway across x is (3,0) for 8-wide ((8+1)/2-1 = 3).
	if d := p.Dest(m.RouterAt(0, 0), nil); d != m.RouterAt(3, 0) {
		t.Fatalf("tornado(0) = %d, want %d", d, m.RouterAt(3, 0))
	}
}

func TestUniformNeverSelf(t *testing.T) {
	p := Uniform(16)
	f := func(src uint8, seed int64) bool {
		s := int(src) % 16
		rng := rand.New(rand.NewSource(seed))
		return p.Dest(s, rng) != s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternsTotalAcrossTopologies: on every topology class and size
// the harness generates, each legal pattern must be a total function
// over the terminal space — Dest is defined for every source and always
// lands in [0, NumTerminals) — and the fixed permutations must stay
// bijective. This is the property the scenario harness relies on when
// it pairs patterns with arbitrary topologies.
func TestPatternsTotalAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topos := map[string]topology.Topology{}
	for _, d := range []struct{ x, y int }{{3, 3}, {4, 2}, {4, 4}, {5, 5}, {8, 8}} {
		m, err := topology.NewMesh(d.x, d.y, 1)
		if err != nil {
			t.Fatal(err)
		}
		topos[m.Name()] = m
	}
	if tor, err := topology.NewTorus(4, 4, 1); err == nil {
		topos[tor.Name()] = tor
	} else {
		t.Fatal(err)
	}
	if df, err := topology.NewDragonfly(2, 4, 2, 9, 1, 3); err == nil {
		topos["dragonfly:2,4,2,9"] = df
	} else {
		t.Fatal(err)
	}
	if jf, err := topology.NewJellyfish(10, 1, 3, 1, rand.New(rand.NewSource(1))); err == nil {
		topos["jellyfish:10,1,3"] = jf
	} else {
		t.Fatal(err)
	}
	if im, err := topology.NewIrregularMesh(4, 4, 1, 3, rand.New(rand.NewSource(1))); err == nil {
		topos["irregular:4x4:3"] = im
	} else {
		t.Fatal(err)
	}

	bijective := map[string]bool{
		"bit_complement": true, "bit_reverse": true, "bit_rotation": true,
		"shuffle": true, "neighbor": true, "transpose": true,
	}
	for name, topo := range topos {
		t.Run(name, func(t *testing.T) {
			n := topo.NumTerminals()
			pow2 := n&(n-1) == 0
			m, isMesh := topo.(*topology.Mesh)
			square := isMesh && m.X == m.Y
			for _, pat := range []string{
				"uniform_random", "tornado", "neighbor",
				"bit_complement", "bit_reverse", "bit_rotation", "shuffle", "transpose",
			} {
				legal := pow2 || pat == "uniform_random" || pat == "tornado" ||
					pat == "neighbor" || (pat == "transpose" && square)
				p, err := ByName(pat, topo)
				if !legal {
					if err == nil {
						t.Errorf("%s on %d terminals accepted, want constraint error", pat, n)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", pat, err)
				}
				seen := map[int]bool{}
				for src := 0; src < n; src++ {
					d := p.Dest(src, rng)
					if d < 0 || d >= n {
						t.Fatalf("%s: Dest(%d) = %d out of [0,%d)", pat, src, d, n)
					}
					if bijective[pat] {
						if d2 := p.Dest(src, nil); seen[d2] {
							t.Fatalf("%s: destination %d hit twice", pat, d2)
						} else {
							seen[d2] = true
						}
					}
				}
			}
		})
	}
}

func TestByNameErrors(t *testing.T) {
	m := mesh8(t)
	if _, err := ByName("nope", m); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	odd, _ := topology.NewMesh(3, 2, 1) // 6 terminals: not a power of two
	if _, err := ByName("bit_complement", odd); err == nil {
		t.Fatal("bit pattern on non-power-of-two accepted")
	}
}

// takeTurns drives gen at terminal src as the engine does: a turn at
// cycle 0, then one at each cycle the source names, up to cycles.
func takeTurns(gen sim.TrafficGen, src int, rng *sim.Stream, cycles int64, emit func(sim.PacketSpec)) {
	for now := int64(0); now < cycles; {
		now = gen.Generate(now, now+64, src, rng, emit)
	}
}

func TestSyntheticOfferedLoad(t *testing.T) {
	m := mesh8(t)
	gen := &Synthetic{Pattern: Uniform(64), Rate: 0.3}
	flits := 0
	cycles := 20000
	takeTurns(gen, 5, sim.NewStream(2), int64(cycles), func(s sim.PacketSpec) { flits += s.Length })
	got := float64(flits) / float64(cycles)
	if got < 0.25 || got > 0.35 {
		t.Fatalf("offered load %.3f, want ~0.30", got)
	}
	_ = m
}

func TestSyntheticPacketMix(t *testing.T) {
	gen := &Synthetic{Pattern: Uniform(64), Rate: 0.5, DataFrac: 0.5}
	ones, fives := 0, 0
	takeTurns(gen, 1, sim.NewStream(3), 30000, func(s sim.PacketSpec) {
		switch s.Length {
		case 1:
			ones++
		case 5:
			fives++
		default:
			t.Fatalf("unexpected length %d", s.Length)
		}
	})
	frac := float64(fives) / float64(ones+fives)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("data fraction %.2f, want ~0.5", frac)
	}
}

func TestPARSECProfiles(t *testing.T) {
	apps := PARSEC()
	if len(apps) < 10 {
		t.Fatalf("expected a full suite, got %d", len(apps))
	}
	m := mesh8(t)
	for _, app := range apps {
		gen := &AppTraffic{Profile: app, Topo: m}
		count := map[int]int{}
		flits := 0
		takeTurns(gen, 9, sim.NewStream(4), 50000, func(s sim.PacketSpec) {
			count[s.VNet]++
			flits += s.Length
			if s.Dst == 9 {
				t.Fatalf("%s: self-destined packet", app.Name)
			}
		})
		if count[0] == 0 || count[2] == 0 {
			t.Fatalf("%s: vnets unused: %v", app.Name, count)
		}
		load := float64(flits) / 50000
		if load < app.Rate*0.6 || load > app.Rate*1.4 {
			t.Fatalf("%s: offered %.4f, want ~%.4f", app.Name, load, app.Rate)
		}
	}
}
