// Package workload builds production-shaped traffic on top of the
// synthetic pattern generators: closed-loop request/response clients
// with finite MSHR-style windows, Markov-modulated on/off bursts, and
// hotspot destination skew. Generation state is per-terminal, randomness
// comes from the per-entity streams, and global accounting runs only in
// the engine's commit, so a workload's output is a function of the
// configuration alone, never of the order the engine visits terminals in.
package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// Spec is the serializable workload description shared by the harness
// scenario JSON (the `workload` block), the spinsim flags, and the
// /v1/simulate request body.
type Spec struct {
	// Mode is "open" (Bernoulli sources, optionally bursty) or "closed"
	// (finite-window request/response clients). Empty normalizes to
	// "open".
	Mode string `json:"mode,omitempty"`
	// Window is the closed-loop per-terminal outstanding-request cap W
	// (default 4).
	Window int `json:"window,omitempty"`
	// Think is the mean think time in cycles after a reply retires a
	// request; 0 disables think time. Draws are bounded-Pareto with
	// shape 1.5, capped at ThinkMax (default 8x Think).
	Think    int64 `json:"think,omitempty"`
	ThinkMax int64 `json:"think_max,omitempty"`
	// ReqLen/RespLen are the closed-loop packet lengths (defaults 1 and
	// 5: short requests, cache-line replies).
	ReqLen  int `json:"req_len,omitempty"`
	RespLen int `json:"resp_len,omitempty"`
	// BurstOn/BurstOff are the mean on/off durations (cycles) of the
	// per-terminal Markov-modulated burst process; both zero disables
	// bursts. Open mode only. The builder compensates the inner rate by
	// the duty cycle so the long-run offered load still matches Rate.
	BurstOn  int64 `json:"burst_on,omitempty"`
	BurstOff int64 `json:"burst_off,omitempty"`
	// HotFrac sends that fraction of packets to one of Hotspots hot
	// terminals (default 1 hot terminal when HotFrac > 0).
	HotFrac  float64 `json:"hot_frac,omitempty"`
	Hotspots int     `json:"hotspots,omitempty"`
}

// Validate rejects malformed specs with a descriptive error.
func (s *Spec) Validate() error {
	switch s.Mode {
	case "", "open", "closed":
	default:
		return fmt.Errorf("workload: unknown mode %q (want open or closed)", s.Mode)
	}
	closed := s.Mode == "closed"
	if s.Window < 0 || s.Window > 1024 {
		return fmt.Errorf("workload: window %d outside [0,1024]", s.Window)
	}
	if !closed && (s.Window != 0 || s.Think != 0 || s.ThinkMax != 0 || s.ReqLen != 0 || s.RespLen != 0) {
		return fmt.Errorf("workload: window/think/req_len/resp_len need mode closed")
	}
	if s.Think < 0 || s.ThinkMax < 0 {
		return fmt.Errorf("workload: negative think time")
	}
	if s.ThinkMax > 0 && s.ThinkMax < s.Think {
		return fmt.Errorf("workload: think_max %d below think %d", s.ThinkMax, s.Think)
	}
	if s.ReqLen < 0 || s.RespLen < 0 {
		return fmt.Errorf("workload: negative packet length")
	}
	if s.BurstOn < 0 || s.BurstOff < 0 {
		return fmt.Errorf("workload: negative burst duration")
	}
	if (s.BurstOn == 0) != (s.BurstOff == 0) {
		return fmt.Errorf("workload: burst_on and burst_off must be set together")
	}
	if closed && s.BurstOn != 0 {
		return fmt.Errorf("workload: bursts apply to mode open (closed-loop burstiness comes from think times)")
	}
	if s.HotFrac < 0 || s.HotFrac > 1 {
		return fmt.Errorf("workload: hot_frac %g outside [0,1]", s.HotFrac)
	}
	if s.Hotspots < 0 {
		return fmt.Errorf("workload: negative hotspot count")
	}
	if s.Hotspots > 0 && s.HotFrac == 0 {
		return fmt.Errorf("workload: hotspots without hot_frac")
	}
	return nil
}

// Normalize fills defaults in place — the one place they are written;
// Build runs on its result — so two specs that simulate identically
// canonicalize identically.
func (s *Spec) Normalize() {
	if s.Mode == "" {
		s.Mode = "open"
	}
	if s.Mode == "closed" {
		if s.Window == 0 {
			s.Window = 4
		}
		if s.ReqLen == 0 {
			s.ReqLen = 1
		}
		if s.RespLen == 0 {
			s.RespLen = 5
		}
		if s.Think > 0 && s.ThinkMax == 0 {
			s.ThinkMax = 8 * s.Think
		}
		if s.Think == 0 {
			s.ThinkMax = 0
		}
	}
	if s.HotFrac > 0 && s.Hotspots == 0 {
		s.Hotspots = 1
	}
	if s.HotFrac == 0 {
		s.Hotspots = 0
	}
}

// IsZero reports whether the normalized spec changes nothing over plain
// open-loop synthetic traffic (so callers can drop the block entirely).
func (s *Spec) IsZero() bool {
	return (s.Mode == "" || s.Mode == "open") && s.BurstOn == 0 && s.HotFrac == 0
}

// Build assembles the traffic generator for a spec: pattern (wrapped
// with hotspot skew when requested), then either the closed-loop client
// or a Bernoulli source under the burst modulator. rate is offered
// flits/terminal/cycle; vnets and maxPktLen come from the simulated
// configuration (closed mode needs vnets >= 2 to separate the request
// and reply message classes); seed feeds the per-terminal think-time
// streams.
func Build(s Spec, pat traffic.Pattern, rate, dataFrac float64, vnets, terminals, maxPktLen int, seed int64) (sim.TrafficGen, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.Normalize()
	if s.HotFrac > 0 {
		if s.Hotspots > terminals {
			return nil, fmt.Errorf("workload: %d hotspots exceed %d terminals", s.Hotspots, terminals)
		}
		hot := make([]int, s.Hotspots)
		for i := range hot {
			hot[i] = i * terminals / s.Hotspots
		}
		pat = &Hotspot{Inner: pat, Frac: s.HotFrac, Hot: hot}
	}
	if s.Mode == "closed" {
		return newClosedLoop(s, pat, rate, vnets, maxPktLen, seed)
	}
	syn := &traffic.Synthetic{Pattern: pat, Rate: rate, DataFrac: dataFrac, VNets: vnets}
	if s.BurstOn > 0 {
		// Rate compensation: traffic only flows during the on fraction
		// of the cycle budget, so the instantaneous rate rises to keep
		// the long-run offered load at the requested value.
		duty := float64(s.BurstOn) / float64(s.BurstOn+s.BurstOff)
		syn.Rate = rate / duty
		return &Burst{Inner: syn, OnMean: s.BurstOn, OffMean: s.BurstOff}, nil
	}
	return syn, nil
}
