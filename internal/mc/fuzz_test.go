package mc

import (
	"bytes"
	"testing"
)

// fuzzInstances are the registry instances the fuzzer round-trips
// against; data[0] selects one so a single corpus covers every topology
// shape (different radix, path caps, packet counts).
var fuzzInstances = []string{"mesh2x2", "mesh3x3", "ring5"}

// FuzzMCState fuzzes the canonical state codec: any byte string the
// decoder accepts must re-encode to exactly the same bytes (the
// visited-set membership contract — one state, one encoding) and be
// safe to hand to the invariant checker and the successor generator.
// Decoder rejections are fine; panics and encoding aliases are the bugs.
func FuzzMCState(f *testing.F) {
	// Seed with real reachable encodings: each instance's initial state
	// plus a few BFS levels, so the fuzzer starts from valid structures
	// rather than discovering the format from scratch.
	for sel, name := range fuzzInstances {
		in, err := NewInstance(name, 0, MutNone)
		if err != nil {
			f.Fatal(err)
		}
		frontier := []*State{in.InitialState()}
		for depth := 0; depth < 4; depth++ {
			var next []*State
			for _, s := range frontier {
				f.Add(append([]byte{byte(sel)}, in.Encode(s)...))
				if len(next) < 64 {
					for _, sc := range in.Successors(s) {
						next = append(next, sc.State)
					}
				}
			}
			frontier = next
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		in, err := NewInstance(fuzzInstances[int(data[0])%len(fuzzInstances)], 0, MutNone)
		if err != nil {
			t.Fatal(err)
		}
		enc := data[1:]
		st, err := in.Decode(enc)
		if err != nil {
			return // rejection is a valid answer; aliasing is not
		}
		re := in.Encode(st)
		if !bytes.Equal(re, enc) {
			t.Fatalf("decode accepted a non-canonical encoding:\n  in  %x\n  out %x", enc, re)
		}
		// Decoded states must be safe to explore: the checker calls both
		// of these on every state the search reaches.
		in.CheckInvariants(st)
		for _, succ := range in.Successors(st) {
			if succ.State == nil {
				t.Fatalf("successor %q has nil state", succ.Action)
			}
		}
	})
}
