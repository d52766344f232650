package fleet

import (
	"io"

	"repro/internal/prom"
)

// metrics holds the fleet's Prometheus series, in their own registry so
// the fleet stays free of the serve package (serve imports fleet, not
// the reverse); the serving layer splices WriteMetrics into /metrics.
// Per-peer series are labelled by peer ID, which is bounded by fleet
// size.
type metrics struct {
	reg *prom.Registry

	gossipRounds, gossipErrors, backfills, backfillErrors, fallbacks *prom.Counter
	fillHits, fillMisses, fillErrors, proxied, proxyErrors           *prom.Counter // by peer
}

// newMetrics registers the fleet series in their render order.
func newMetrics(f *Fleet) *metrics {
	r := prom.NewRegistry()
	r.GaugeSetFunc("spind_fleet_members", "Fleet members in the local view by health state.", func() []prom.Sample {
		states := map[State]int{}
		f.mu.Lock()
		for _, m := range f.members {
			states[m.state]++
		}
		f.mu.Unlock()
		var out []prom.Sample
		for _, s := range []State{StateAlive, StateSuspect, StateDead, StateLeft} {
			out = append(out, prom.Sample{Labels: prom.Labels("state", string(s)), Value: float64(states[s])})
		}
		return out
	})
	r.GaugeFunc("spind_fleet_ring_nodes", "Members currently owning keys on the consistent-hash ring.", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(len(f.ring.nodes()))
	})
	r.GaugeFunc("spind_fleet_ready", "Whether the first gossip round has completed (readiness gate).", func() float64 {
		if f.Ready() {
			return 1
		}
		return 0
	})
	return &metrics{
		reg:            r,
		gossipRounds:   r.Counter("spind_fleet_gossip_rounds_total", "Gossip rounds completed."),
		gossipErrors:   r.Counter("spind_fleet_gossip_errors_total", "Gossip exchanges that failed."),
		backfills:      r.Counter("spind_fleet_backfills_total", "Locally computed results pushed to their ring owner."),
		backfillErrors: r.Counter("spind_fleet_backfill_errors_total", "Backfill pushes that failed."),
		fallbacks:      r.Counter("spind_fleet_local_fallbacks_total", "Requests computed locally because the key's owner was unreachable."),
		fillHits:       r.Counter("spind_fleet_fill_hits_total", "Peer cache-fills that returned a cached result."),
		fillMisses:     r.Counter("spind_fleet_fill_misses_total", "Peer cache-fills answered 404 (owner had no entry)."),
		fillErrors:     r.Counter("spind_fleet_fill_errors_total", "Peer cache-fills that failed (peer unreachable or errored)."),
		proxied:        r.Counter("spind_fleet_proxied_total", "Requests forwarded to their key's owner for compute."),
		proxyErrors:    r.Counter("spind_fleet_proxy_errors_total", "Owner forwards that failed (fell back to local compute)."),
	}
}

// Counters is the admin-endpoint summary of the fleet series.
type Counters struct {
	GossipRounds   int64 `json:"gossip_rounds"`
	GossipErrors   int64 `json:"gossip_errors"`
	FillHits       int64 `json:"fill_hits"`
	FillMisses     int64 `json:"fill_misses"`
	FillErrors     int64 `json:"fill_errors"`
	Proxied        int64 `json:"proxied"`
	ProxyErrors    int64 `json:"proxy_errors"`
	Backfills      int64 `json:"backfills"`
	BackfillErrors int64 `json:"backfill_errors"`
	Fallbacks      int64 `json:"local_fallbacks"`
}

// Counters snapshots the fleet-level counters (per-peer series summed).
func (f *Fleet) Counters() Counters {
	m := f.metrics
	return Counters{
		GossipRounds:   int64(m.gossipRounds.Total()),
		GossipErrors:   int64(m.gossipErrors.Total()),
		FillHits:       int64(m.fillHits.Total()),
		FillMisses:     int64(m.fillMisses.Total()),
		FillErrors:     int64(m.fillErrors.Total()),
		Proxied:        int64(m.proxied.Total()),
		ProxyErrors:    int64(m.proxyErrors.Total()),
		Backfills:      int64(m.backfills.Total()),
		BackfillErrors: int64(m.backfillErrors.Total()),
		Fallbacks:      int64(m.fallbacks.Total()),
	}
}

// WriteMetrics renders the fleet series in Prometheus text exposition
// format; the serving registry calls it at scrape time.
func (f *Fleet) WriteMetrics(w io.Writer) { f.metrics.reg.Render(w) }
