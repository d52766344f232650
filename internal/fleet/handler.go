package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The fleet's HTTP surface, mounted by the serving layer:
//
//	POST /v1/gossip       membership exchange (fleet-internal)
//	GET  /v1/cache/<key>  raw cached bytes for a content address, or 404
//	PUT  /v1/cache/<key>  backfill a computed result into this node
//	GET  /v1/fleet        admin view: ring, members, health, counters
//
// The cache endpoints speak raw response bytes on purpose: a cached
// entry is already the exact bytes a client would receive, so fills and
// backfills never re-encode (re-encoding is where byte-identity goes to
// die).

// HandleGossip is POST /v1/gossip: merge the sender's table, reply with
// ours.
func (f *Fleet) HandleGossip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a gossip message", http.StatusMethodNotAllowed)
		return
	}
	var msg gossipMsg
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&msg); err != nil {
		http.Error(w, "bad gossip: "+err.Error(), http.StatusBadRequest)
		return
	}
	f.merge(msg.Members)
	f.mu.Lock()
	reply := f.snapshotLocked()
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// HandleCache serves GET and PUT /v1/cache/<key>.
func (f *Fleet) HandleCache(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !validKey(key) {
		http.Error(w, "bad key: want 64 hex chars", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		val, ok := f.cfg.Cache.Get(key)
		if !ok {
			http.Error(w, "not cached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if id := r.Header.Get(HeaderRequestID); id != "" {
			w.Header().Set(HeaderRequestID, id)
		}
		w.Write(val)
	case http.MethodPut:
		val, err := io.ReadAll(io.LimitReader(r.Body, maxPeerBody+1))
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(val) > maxPeerBody {
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
		// The store only ever holds response JSON; refusing anything else
		// keeps a buggy or malicious peer from poisoning entries that
		// would later strict-decode-fail into recomputes.
		if !json.Valid(val) {
			http.Error(w, "value is not valid JSON", http.StatusBadRequest)
			return
		}
		if err := f.cfg.Cache.Put(key, val); err != nil {
			http.Error(w, "store: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
	}
}

// validKey reports whether key is a well-formed content address (the
// lowercase hex SHA-256 the cache uses).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// AdminStatus is the GET /v1/fleet response: the live fleet state one
// operator curl away.
type AdminStatus struct {
	Self    string   `json:"self"`
	Addr    string   `json:"addr"`
	Ready   bool     `json:"ready"`
	Members []Member `json:"members"`
	Ring    RingInfo `json:"ring"`
	Count   Counters `json:"counters"`
}

// RingInfo summarizes the ownership ring.
type RingInfo struct {
	VNodes int      `json:"vnodes_per_member"`
	Nodes  []string `json:"nodes"`
}

// Status assembles the admin view (also used by tests).
func (f *Fleet) Status() AdminStatus {
	f.mu.Lock()
	nodes := f.ring.nodes()
	f.mu.Unlock()
	return AdminStatus{
		Self:    f.cfg.ID,
		Addr:    f.cfg.Advertise,
		Ready:   f.Ready(),
		Members: f.Members(),
		Ring:    RingInfo{VNodes: vnodes, Nodes: nodes},
		Count:   f.Counters(),
	}
}

// HandleAdmin is GET /v1/fleet.
func (f *Fleet) HandleAdmin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f.Status()); err != nil {
		fmt.Fprintln(w, "{}")
	}
}
