package sim

import (
	"math/rand"
	"testing"
)

// TestBitsetWindow32 checks the 32-bit read a router takes of a downstream
// port's free-VC words against a bit-at-a-time reference, at every offset:
// inside a word, across a word boundary, and running off the end.
func TestBitsetWindow32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range []int{1, 2, 3} {
		b := make(bitset, words)
		for i := range b {
			b[i] = rng.Uint64()
		}
		for i := 0; i < words*64; i++ {
			var want uint32
			for k := 0; k < 32 && i+k < words*64; k++ {
				if b.has(i + k) {
					want |= 1 << uint(k)
				}
			}
			if got := b.window32(i); got != want {
				t.Fatalf("%d words, offset %d: window32 = %#x, want %#x", words, i, got, want)
			}
		}
	}
}
