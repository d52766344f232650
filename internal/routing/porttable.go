package routing

// portTable is a precomputed per-(router, destination) output-port lookup:
// one flattened port list per ordered router pair, built once per routing
// instance from the algorithm's original per-hop computation. Route then
// reads the table instead of recomputing geometry for every head flit.
// Port ids are stored as uint8 (radices are far below 256) and appended in
// exactly the order the generating function produced them, so adaptive
// selection sees identical candidate sequences and consumes the RNG
// identically — the golden-determinism contract.
type portTable struct {
	n     int
	off   []int32
	ports []uint8
}

// buildPortTable evaluates f for every (router, dst) pair of an n-router
// topology and packs the results. f may append the pair's ports to buf, the
// scratch buffer it returned for the last pair, emptied, and return it.
func buildPortTable(n int, f func(r, dst int, buf []int) []int) *portTable {
	t := &portTable{n: n, off: make([]int32, n*n+1)}
	var buf []int
	for r := 0; r < n; r++ {
		for dst := 0; dst < n; dst++ {
			buf = f(r, dst, buf[:0])
			for _, p := range buf {
				t.ports = append(t.ports, uint8(p))
			}
			t.off[r*n+dst+1] = int32(len(t.ports))
		}
	}
	return t
}

// appendPorts appends the precomputed ports of (r, dst) to buf.
func (t *portTable) appendPorts(buf []int, r, dst int) []int {
	base := r*t.n + dst
	lo, hi := t.off[base], t.off[base+1]
	for _, p := range t.ports[lo:hi] {
		buf = append(buf, int(p))
	}
	return buf
}
