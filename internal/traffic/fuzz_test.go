package traffic

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzSpintraceDecoder hardens the binary spintrace-v1 decoder against
// arbitrary bytes. The invariants:
//
//  1. Decoding never panics; failures are the typed ErrTraceMagic or
//     ErrTraceCorrupt (wrapped), so servers can map them to 4xx.
//  2. Anything the decoder accepts is structurally valid (nonnegative
//     nondecreasing cycles, positive lengths), and encoding is canonical
//     past the gzip frame: one encode → decode → encode round trip is a
//     byte-level fixpoint. (The outer gzip header admits cosmetic
//     variation — mtime, level — so arbitrary accepted input is
//     normalized once, then stable.)
//
// Run it with: go test -fuzz FuzzSpintraceDecoder -fuzztime 30s ./internal/traffic
func FuzzSpintraceDecoder(f *testing.F) {
	seed := func(n, perCycle int, src int64) []byte {
		tr := randomTrace(rand.New(rand.NewSource(src)), n, perCycle)
		var buf bytes.Buffer
		if err := EncodeTrace(&buf, tr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("spintrace-v1\n"))
	f.Add([]byte("1,2,3,4,5\n"))
	f.Add(seed(0, 1, 1))
	f.Add(seed(50, 4, 2))
	f.Add(seed(5000, 8, 3)) // multi-chunk
	corrupt := seed(200, 2, 4)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeAll(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTraceMagic) && !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		prev := int64(0)
		for i, e := range tr {
			if e.Cycle < prev || e.Length <= 0 || e.Src < 0 || e.Dst < 0 || e.VNet < 0 {
				t.Fatalf("decoder accepted invalid entry %d: %+v", i, e)
			}
			prev = e.Cycle
		}
		var re bytes.Buffer
		if err := EncodeTrace(&re, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := decodeAll(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		var re2 bytes.Buffer
		if err := EncodeTrace(&re2, tr2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), re2.Bytes()) {
			t.Fatalf("encoding is not canonical: second round trip changed bytes (%d vs %d)", re.Len(), re2.Len())
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed entries: %d vs %d", len(tr), len(tr2))
		}
	})
}
