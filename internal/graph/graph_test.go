package graph

import (
	"reflect"
	"testing"
)

// csr builds a CSR graph from adjacency lists.
func csr(lists [][]int32) (lo, adj []int32) {
	lo = []int32{0}
	for _, l := range lists {
		adj = append(adj, l...)
		lo = append(lo, int32(len(adj)))
	}
	return lo, adj
}

// sccLists copies SCCs' answer out as one list per component.
func sccLists(members, bounds []int32) [][]int32 {
	var out [][]int32
	for k := 1; k < len(bounds); k++ {
		out = append(out, append([]int32(nil), members[bounds[k-1]:bounds[k]]...))
	}
	return out
}

// TestSCCOrder pins the order the CDG's cycle listing depends on: the walk
// starts at node 0, follows edges in adj order, emits sinks first, and an
// SCC lists its members as the stack pops them, root last.
func TestSCCOrder(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 (a cycle rooted at 0), 2 -> 3, 3 self-loop,
	// 4 isolated, 5 -> 4 twice.
	lo, adj := csr([][]int32{{1}, {2}, {0, 3}, {3}, {}, {4, 4}})
	var s Scratch
	got := sccLists(s.SCCs(lo, adj, nil))
	want := [][]int32{{3}, {2, 1, 0}, {4}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCs %v, want %v", got, want)
	}
	live := []bool{false, false, false, false, true, false}
	s.Live(lo, adj, live)
	if want := []bool{false, false, false, false, true, true}; !reflect.DeepEqual(live, want) {
		t.Fatalf("Live %v, want %v", live, want)
	}
}

// TestScratchAllocatesNothingOnceGrown: a kept Scratch serves a graph no
// larger than one it has seen without allocating.
func TestScratchAllocatesNothingOnceGrown(t *testing.T) {
	lists := make([][]int32, 500)
	for v := range lists {
		lists[v] = []int32{int32((v + 1) % len(lists)), int32(v * 7 % len(lists))}
	}
	lo, adj := csr(lists)
	live := make([]bool, len(lists))
	var s Scratch
	s.Live(lo, adj, live)
	if allocs := testing.AllocsPerRun(10, func() { s.Live(lo, adj, live) }); allocs != 0 {
		t.Fatalf("a grown Scratch allocates %.0f objects per call", allocs)
	}
}

// reachable reports, by node pair, whether a path leads from u to v
// (the empty path included) through nodes skip leaves in.
func reachable(lists [][]int32, skip []bool) [][]bool {
	reach := make([][]bool, len(lists))
	for u := range reach {
		reach[u] = make([]bool, len(lists))
		if skip[u] {
			continue
		}
		reach[u][u] = true
		queue := []int32{int32(u)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range lists[v] {
				if !skip[w] && !reach[u][w] {
					reach[u][w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return reach
}

// checkSCCs checks SCCs' answer for the graph lists less the nodes skip
// marks: each node left in is in exactly one SCC, two share one exactly
// when each reaches the other, and no edge leads to a later SCC.
func checkSCCs(t *testing.T, lists [][]int32, skip []bool, members, bounds []int32) {
	t.Helper()
	reach := reachable(lists, skip)
	comp := make([]int, len(lists))
	for v := range comp {
		comp[v] = -1
	}
	for k, scc := range sccLists(members, bounds) {
		for _, v := range scc {
			if comp[v] >= 0 || skip[v] {
				t.Fatalf("skip %v: node %d in SCC %d, and in SCC %d or skipped", skip, v, k, comp[v])
			}
			comp[v] = k
		}
	}
	for u := range comp {
		if skip[u] {
			continue
		}
		if comp[u] < 0 {
			t.Fatalf("skip %v: node %d in no SCC", skip, u)
		}
		for v := range comp {
			if same := comp[u] == comp[v]; !skip[v] && same != (reach[u][v] && reach[v][u]) {
				t.Fatalf("skip %v: nodes %d, %d: same SCC %v, mutually reachable %v", skip, u, v, same, !same)
			}
		}
		for _, v := range lists[u] {
			if !skip[v] && comp[v] > comp[u] {
				t.Fatalf("skip %v: edge %d -> %d leaves SCC %d for SCC %d, emitted after it", skip, u, v, comp[u], comp[v])
			}
		}
	}
}

// FuzzSCC decodes a random graph of up to 32 nodes — self-loops, parallel
// edges and isolated nodes included — and a node mask from the input. It
// checks SCCs, of the whole graph and with the masked nodes skipped,
// against mutual reachability by brute force and the emission order
// against every edge (sinks first), and Live, the mask being the nodes
// live on entry, against a search for a live node from every node. One
// Scratch serves every input, so reuse is exercised too.
func FuzzSCC(f *testing.F) {
	f.Add(uint8(6), uint32(0b010000), []byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 3, 5, 4, 5, 4})
	f.Add(uint8(1), uint32(0), []byte{0, 0})
	f.Add(uint8(32), uint32(1<<31), []byte{})
	f.Add(uint8(9), uint32(0b100100100), []byte{0, 1, 1, 0, 2, 3, 3, 4, 4, 2, 5, 6, 6, 7, 7, 8, 8, 5, 1, 2, 4, 5})
	var s Scratch
	f.Fuzz(func(t *testing.T, nodes uint8, mask uint32, edges []byte) {
		n := 1 + int(nodes)%32
		lists := make([][]int32, n)
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%n, int32(int(edges[i+1])%n)
			lists[u] = append(lists[u], v)
		}
		lo, adj := csr(lists)
		none, live := make([]bool, n), make([]bool, n)
		for v := range live {
			live[v] = mask>>v&1 == 1
		}
		members, bounds := s.SCCs(lo, adj, nil)
		checkSCCs(t, lists, none, members, bounds)
		members, bounds = s.SCCs(lo, adj, live)
		checkSCCs(t, lists, live, members, bounds)

		reach := reachable(lists, none)
		want := make([]bool, n)
		for u := range want {
			for v := range live {
				want[u] = want[u] || reach[u][v] && live[v]
			}
		}
		s.Live(lo, adj, live)
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("Live %v, want %v", live, want)
		}
	})
}
