package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring with virtual nodes. Every fleet member
// contributes vnodes points on a 64-bit circle; a key is owned by the
// member whose point is the first at or clockwise of the key's hash.
// Virtual nodes smooth the per-member share toward 1/N, and consistency
// means membership changes only reassign the keys that mapped to the
// departed (or newly arrived) member — the property that makes peer
// cache-fill effective across rolling restarts.
//
// The hash is SHA-256 truncated to 64 bits. It must be identical on
// every node (ownership is only useful if the whole fleet agrees), so
// nothing process-local (map order, random seeds) may leak in.
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // the distinct members, sorted
}

type ringPoint struct {
	hash uint64
	id   string
}

// hash64 maps an arbitrary string onto the ring circle.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring over ids with vnodes virtual nodes each.
func newRing(ids []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*vnodes), ids: append([]string(nil), ids...)}
	sort.Strings(r.ids)
	for _, id := range ids {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(i)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between different members is vanishingly
		// unlikely but must still order deterministically fleet-wide.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// owners reports up to n distinct members for key: the owner first,
// then ring successors in order. Successors are the natural backfill
// and fill-fallback targets — when the owner changes (death, join), the
// new owner is by construction one of the old owner's neighbors for
// most keys.
func (r *ring) owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// nodes reports the distinct member IDs on the ring, sorted.
func (r *ring) nodes() []string { return r.ids }
