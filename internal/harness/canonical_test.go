package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func validScenario() Scenario {
	return Scenario{
		Topology: "mesh:4x4",
		Routing:  "min_adaptive",
		Scheme:   "spin",
		Traffic:  "uniform_random",
		Rate:     0.2,
		Seed:     7,
		Cycles:   1000,
	}
}

// TestCanonicalRoundTrip is the request ⇄ Scenario contract: canonical
// bytes decode back to the normalized scenario, and re-canonicalizing is
// a fixed point.
func TestCanonicalRoundTrip(t *testing.T) {
	sc := validScenario()
	can := sc.Canonical()
	dec, err := DecodeScenario(bytes.NewReader(can))
	if err != nil {
		t.Fatal(err)
	}
	if !CanonicalEqual(dec, sc) || fmt.Sprintf("%+v", dec) != fmt.Sprintf("%+v", sc.Normalized()) {
		t.Fatalf("round trip changed the scenario:\n  in  %+v\n  out %+v", sc.Normalized(), dec)
	}
	if !bytes.Equal(dec.Canonical(), can) {
		t.Fatalf("canonicalization is not a fixed point:\n  %s\n  %s", can, dec.Canonical())
	}
}

// TestCanonicalDefaultsCollapse pins the cache-key property: spelling a
// default out and omitting it must produce identical canonical bytes.
func TestCanonicalDefaultsCollapse(t *testing.T) {
	implicit := validScenario()
	explicit := implicit
	explicit.VNets = 1
	explicit.VCsPerVNet = 1
	explicit.VCDepth = 5
	explicit.DataFrac = 0.5
	explicit.TDD = 128 // the spin default
	if !CanonicalEqual(implicit, explicit) {
		t.Fatalf("explicit defaults changed the canonical form:\n  %s\n  %s",
			implicit.Canonical(), explicit.Canonical())
	}
	// "none" and "" name the same (absent) scheme; an unused TDD is noise.
	a := validScenario()
	a.Scheme = "none"
	a.TDD = 999
	b := validScenario()
	b.Scheme = ""
	if !CanonicalEqual(a, b) {
		t.Fatalf("scheme aliasing not collapsed:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}
}

// TestCanonicalPatternAliases: a pattern's alias names the same run as its
// canonical name, so the two encode, and key the cache, the same.
func TestCanonicalPatternAliases(t *testing.T) {
	for alias, name := range map[string]string{"ur": "uniform_random", "uniform": "uniform_random",
		"bitcomp": "bit_complement", "bitrev": "bit_reverse", "bitrot": "bit_rotation"} {
		a, b := validScenario(), validScenario()
		a.Traffic, b.Traffic = alias, name
		if !CanonicalEqual(a, b) {
			t.Errorf("%s and %s encode differently:\n  %s\n  %s", alias, name, a.Canonical(), b.Canonical())
		}
	}
}

// TestCanonicalDistinguishes guards against over-normalization: knobs
// that change the simulation must change the canonical bytes.
func TestCanonicalDistinguishes(t *testing.T) {
	base := validScenario()
	mutations := map[string]func(*Scenario){
		"rate":    func(s *Scenario) { s.Rate = 0.3 },
		"seed":    func(s *Scenario) { s.Seed = 8 },
		"cycles":  func(s *Scenario) { s.Cycles = 2000 },
		"warmup":  func(s *Scenario) { s.Warmup = 100 },
		"tdd":     func(s *Scenario) { s.TDD = 64 },
		"traffic": func(s *Scenario) { s.Traffic = "tornado" },
		"vcs":     func(s *Scenario) { s.VCsPerVNet = 3 },
	}
	for name, mutate := range mutations {
		sc := base
		mutate(&sc)
		if CanonicalEqual(base, sc) {
			t.Errorf("%s: mutation did not change the canonical form", name)
		}
	}
}

// TestDecodeScenarioStrict rejects unknown fields and trailing garbage.
func TestDecodeScenarioStrict(t *testing.T) {
	if _, err := DecodeScenario(strings.NewReader(`{"topology":"mesh:4x4","vc_per_vnet":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeScenario(strings.NewReader(`{"topology":"mesh:4x4"} {"x":1}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	if _, err := DecodeScenario(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestValidateRejects enumerates the request-shape errors.
func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Scenario){
		"no topology":    func(s *Scenario) { s.Topology = "" },
		"no traffic":     func(s *Scenario) { s.Traffic = "" },
		"zero rate":      func(s *Scenario) { s.Rate = 0 },
		"zero cycles":    func(s *Scenario) { s.Cycles = 0 },
		"neg warmup":     func(s *Scenario) { s.Warmup = -1 },
		"warmup>=cycles": func(s *Scenario) { s.Warmup = 1000 },
		"bad datafrac":   func(s *Scenario) { s.DataFrac = 1.5 },
		"neg vnets":      func(s *Scenario) { s.VNets = -1 },
		"neg tdd":        func(s *Scenario) { s.TDD = -1 },
		"neg drain":      func(s *Scenario) { s.DrainCycles = -5 },
	}
	for name, mutate := range cases {
		sc := validScenario()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestNormalizedSimulatesIdentically is the load-bearing claim behind
// cache-key normalization: the normalized scenario runs bit-identically
// to the original.
func TestNormalizedSimulatesIdentically(t *testing.T) {
	sc := validScenario()
	sc.Cycles = 500
	run := func(s Scenario) string {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		res.Scenario = Scenario{} // the echo differs in spelling by design
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := run(sc.Normalized()), run(sc); got != want {
		t.Fatalf("normalization changed simulation results:\n  raw  %s\n  norm %s", want, got)
	}
}
