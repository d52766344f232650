package fleet

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"time"
)

// The gossip protocol: every Interval each node advances its own
// heartbeat and POSTs its full membership table to fanout random live
// peers; the receiver merges it and replies with its own table, which
// the sender merges back. An entry wins a merge when its (incarnation,
// heartbeat) pair is newer — incarnation is the owner's boot timestamp,
// so a restarted node (heartbeat reset to 1) still supersedes its stale
// pre-restart rumor. Failure detection is purely local: a member whose
// merged heartbeat stops advancing ages into suspect then dead.
// Membership tables are a handful of entries, so full-table exchange is
// simpler and converges faster than delta protocols at this scale.

// wireMember is one gossiped membership entry.
type wireMember struct {
	ID          string    `json:"id"`
	Addr        string    `json:"addr"`
	Incarnation int64     `json:"incarnation"`
	Heartbeat   uint64    `json:"heartbeat"`
	Left        bool      `json:"left,omitempty"`
	Cache       CacheInfo `json:"cache"`
	Version     string    `json:"version,omitempty"`
}

// gossipMsg is the request and response body of POST /v1/gossip.
type gossipMsg struct {
	From    string       `json:"from"`
	Members []wireMember `json:"members"`
}

// loop is the gossip goroutine: rounds every Interval until Close.
func (f *Fleet) loop() {
	defer close(f.done)
	ticker := time.NewTicker(f.cfg.Interval)
	defer ticker.Stop()
	// An immediate first round gets a freshly booted node into the ring
	// (and Ready) without waiting out a full interval.
	f.round()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.round()
		}
	}
}

// round is one gossip exchange: heartbeat, pick targets, swap tables,
// sweep failure states.
func (f *Fleet) round() {
	f.mu.Lock()
	self := f.members[f.cfg.ID]
	self.Heartbeat++
	self.lastSeen = f.now()
	if f.cfg.CacheStats != nil {
		self.Cache = f.cfg.CacheStats()
	}
	msg := f.snapshotLocked()
	targets := f.targetsLocked()
	f.mu.Unlock()

	for _, addr := range targets {
		if err := f.exchange(addr, msg); err != nil {
			f.metrics.gossipErrors.Add(1)
			f.logf("gossip %s: %v", addr, err)
		}
	}
	f.metrics.gossipRounds.Add(1)

	f.mu.Lock()
	f.sweepLocked()
	f.ready = true
	f.mu.Unlock()
}

// snapshotLocked renders the membership table for the wire; f.mu held.
func (f *Fleet) snapshotLocked() gossipMsg {
	msg := gossipMsg{From: f.cfg.ID, Members: make([]wireMember, 0, len(f.members))}
	for _, m := range f.members {
		msg.Members = append(msg.Members, m.wireMember)
	}
	return msg
}

// targetsLocked picks up to fanout gossip targets: routable members
// plus any seed addresses not yet matched to a member; f.mu held.
func (f *Fleet) targetsLocked() []string {
	var pool []string
	known := make(map[string]bool)
	for _, m := range f.members {
		if m.ID == f.cfg.ID || m.Addr == "" {
			continue
		}
		known[m.Addr] = true
		// Dead and left members are not gossiped to.
		if m.state.onRing() {
			pool = append(pool, m.Addr)
		}
	}
	for _, s := range f.seeds {
		if !known[s] {
			pool = append(pool, s)
		}
	}
	rand.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(len(pool), fanout)]
}

// exchange POSTs one gossip message and merges the reply.
func (f *Fleet) exchange(addr string, msg gossipMsg) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	_, b, err := f.call(context.Background(), f.cfg.Interval, http.MethodPost, addr, "/v1/gossip", body, Hop{})
	if err != nil {
		return err
	}
	var reply gossipMsg
	if err := json.Unmarshal(b, &reply); err != nil {
		return err
	}
	f.merge(reply.Members)
	return nil
}

// merge folds a received membership table into the local view.
func (f *Fleet) merge(entries []wireMember) {
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	changed := false
	for _, wm := range entries {
		if wm.ID == "" || wm.ID == f.cfg.ID {
			// Rumors about ourselves are never merged: our own heartbeat
			// is the only authority on our liveness.
			continue
		}
		m, ok := f.members[wm.ID]
		if !ok {
			m = &member{wireMember: wm, lastSeen: now, state: StateAlive}
			if wm.Left {
				m.state = StateLeft
			}
			f.members[wm.ID] = m
			changed = true
			f.logf("member %s (%s) joined the view (%s)", wm.ID, wm.Addr, m.state)
			continue
		}
		newer := wm.Incarnation > m.Incarnation ||
			(wm.Incarnation == m.Incarnation && wm.Heartbeat > m.Heartbeat)
		if !newer {
			continue
		}
		wasOnRing := m.state.onRing()
		m.wireMember = wm
		m.lastSeen = now
		if wm.Left {
			m.state = StateLeft
		} else {
			m.state = StateAlive
		}
		if wasOnRing != m.state.onRing() {
			changed = true
			f.logf("member %s is now %s", m.ID, m.state)
		}
	}
	if changed {
		f.rebuildRingLocked()
	}
}

// sweepLocked ages members through suspect and dead; f.mu held.
func (f *Fleet) sweepLocked() {
	now := f.now()
	changed := false
	for _, m := range f.members {
		if m.ID == f.cfg.ID || !m.state.onRing() {
			continue
		}
		age := now.Sub(m.lastSeen)
		next := StateAlive
		switch {
		case age > deadRounds*f.cfg.Interval:
			next = StateDead
		case age > suspectRounds*f.cfg.Interval:
			next = StateSuspect
		}
		if next != m.state {
			f.logf("member %s: %s -> %s (heartbeat age %v)", m.ID, m.state, next, age.Round(time.Millisecond))
			changed = changed || m.state.onRing() != next.onRing()
			m.state = next
		}
	}
	if changed {
		f.rebuildRingLocked()
	}
}

// Leave announces a graceful departure: the self entry is marked left
// with a final heartbeat bump and pushed to every routable member, so
// peers drop this node from their rings immediately instead of waiting
// out the suspicion window. Call before Close on SIGTERM.
func (f *Fleet) Leave() {
	f.mu.Lock()
	self := f.members[f.cfg.ID]
	self.Left = true
	self.Heartbeat++
	msg := f.snapshotLocked()
	var targets []string
	for _, m := range f.members {
		if m.ID != f.cfg.ID && m.Addr != "" && m.state.onRing() {
			targets = append(targets, m.Addr)
		}
	}
	f.mu.Unlock()
	for _, addr := range targets {
		if err := f.exchange(addr, msg); err != nil {
			f.logf("leave %s: %v", addr, err)
		}
	}
}
