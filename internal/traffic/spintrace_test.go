package traffic

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// randomTrace builds a valid trace of n entries with nondecreasing
// cycles, perCycle entries per cycle on a 16-terminal topology.
func randomTrace(rng *rand.Rand, n, perCycle int) []TraceEntry {
	tr := make([]TraceEntry, n)
	for i := range tr {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		if dst == src {
			dst = (dst + 1) % 16
		}
		tr[i] = TraceEntry{
			Cycle:  int64(i / perCycle),
			Src:    src,
			Dst:    dst,
			Length: 1 + rng.Intn(5),
			VNet:   rng.Intn(2),
		}
	}
	return tr
}

func encodeBytes(t *testing.T, tr []TraceEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll reads a whole spintrace-v1 stream into memory: the
// reference the streaming assertions compare against.
func decodeAll(r io.Reader) ([]TraceEntry, error) {
	tr, err := StreamTrace(r)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	var out []TraceEntry
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// TestSpintraceRoundTrip is the codec property test: encode → decode
// reproduces the entries exactly, and re-encoding the decode is
// byte-identical to the original encoding (the fixpoint that makes traces content-addressable). Sizes
// bracket the chunk boundary (4096 entries per chunk).
func TestSpintraceRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 4095, 4096, 4097, 10000} {
		tr := randomTrace(rng, n, 4)
		enc := encodeBytes(t, tr)

		dec, err := decodeAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(dec) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(dec))
		}
		for i := range dec {
			if dec[i] != tr[i] {
				t.Fatalf("n=%d: entry %d = %+v, want %+v", n, i, dec[i], tr[i])
			}
		}

		// Re-encode fixpoint.
		if re := encodeBytes(t, dec); !bytes.Equal(re, enc) {
			t.Fatalf("n=%d: re-encode is not byte-identical (%d vs %d bytes)", n, len(re), len(enc))
		}
	}
}

// TestSpintraceWriterRejects pins the writer-side validation: encoding
// only ever produces decodable streams.
func TestSpintraceWriterRejects(t *testing.T) {
	t.Parallel()
	for name, e := range map[string]TraceEntry{
		"negative cycle": {Cycle: -1, Dst: 1, Length: 1},
		"zero length":    {Dst: 1},
		"huge field":     {Dst: 1 << 31, Length: 1},
	} {
		tw := NewTraceWriter(io.Discard)
		if err := tw.Add(e); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Cycle regression across Adds.
	tw := NewTraceWriter(io.Discard)
	if err := tw.Add(TraceEntry{Cycle: 5, Dst: 1, Length: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Add(TraceEntry{Cycle: 4, Dst: 1, Length: 1}); err == nil {
		t.Error("cycle regression accepted")
	}
}

// TestSpintraceCorruption feeds the decoder every corruption class the
// format defends against. The contract: a typed error (ErrTraceMagic
// for framing, ErrTraceCorrupt for everything after the magic), never a
// panic, never silent acceptance.
func TestSpintraceCorruption(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	valid := encodeBytes(t, randomTrace(rng, 5000, 4))

	consume := func(b []byte) error {
		tr, err := StreamTrace(bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer tr.Close()
		for {
			if _, err := tr.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty input", nil, ErrTraceMagic},
		{"not gzip", []byte("spintrace-v1\nnope"), ErrTraceMagic},
		{"csv trace", []byte("1,0,1,5,0\n2,3,4,1,0\n"), ErrTraceMagic},
		{"wrong magic", gzipBytes(t, []byte("spamtrace-v1\n")), ErrTraceMagic},
		{"magic only, no terminator", gzipBytes(t, []byte("spintrace-v1\n")), ErrTraceCorrupt},
		{"garbage after magic", gzipBytes(t, append([]byte("spintrace-v1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)), ErrTraceCorrupt},
	}
	// Truncations at layer-meaningful offsets: inside the gzip header,
	// mid-stream, and just before the terminator.
	for _, cut := range []int{1, 10, len(valid) / 2, len(valid) - 1} {
		cases = append(cases, struct {
			name string
			b    []byte
			want error
		}{name: "truncated", b: valid[:cut], want: nil /* any error */})
	}
	// Bit flips across the body. Some flips land in gzip framing (magic
	// error), some in payload (corrupt); all must error.
	for _, pos := range []int{0, 3, len(valid) / 4, len(valid) / 2, len(valid) - 2} {
		b := append([]byte(nil), valid...)
		b[pos] ^= 0x10
		cases = append(cases, struct {
			name string
			b    []byte
			want error
		}{name: "bitflip", b: b, want: nil})
	}
	// Trailing garbage after the terminator.
	cases = append(cases, struct {
		name string
		b    []byte
		want error
	}{"data after terminator", gzipAppend(t, valid, []byte{1, 2, 3}), ErrTraceCorrupt})

	for i, tc := range cases {
		err := consume(tc.b)
		if err == nil {
			t.Errorf("case %d (%s): corruption accepted", i, tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("case %d (%s): err %v, want %v", i, tc.name, err, tc.want)
		}
		if tc.want == nil && !errors.Is(err, ErrTraceMagic) && !errors.Is(err, ErrTraceCorrupt) {
			t.Errorf("case %d (%s): untyped error %v", i, tc.name, err)
		}
	}
}

// gzipBytes gzip-compresses raw bytes (building not-quite-right streams
// the encoder itself would refuse to produce).
func gzipBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gunzipBytes undoes the gzip frame of a valid encoding.
func gunzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// gzipAppend decompresses a valid encoding, appends garbage inside the
// compressed frame, and recompresses — corruption the outer gzip CRC
// cannot catch.
func gzipAppend(t *testing.T, valid, extra []byte) []byte {
	t.Helper()
	raw := gunzipBytes(t, valid)
	return gzipBytes(t, append(raw, extra...))
}

// TestStreamReplayMatchesReplay pins the equivalence of the two entry
// sources: the same entries fed from memory (SliceSource) and from a
// spintrace-v1 stream (TraceReader) drive a simulation to identical
// statistics.
func TestStreamReplayMatchesReplay(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	tr := randomTrace(rng, 400, 2)
	// testNet has a single vnet.
	for i := range tr {
		tr[i].VNet = 0
	}
	enc := encodeBytes(t, tr)

	run := func(src EntrySource) sim.Stats {
		n := testNet(t)
		rp := replayOver(t, n, src)
		n.Run(300)
		if !n.Drain(10000) {
			t.Fatal("failed to drain")
		}
		if err := rp.Err(); err != nil {
			t.Fatal(err)
		}
		if rp.Pumped() != int64(len(tr)) {
			t.Fatalf("pumped %d of %d entries", rp.Pumped(), len(tr))
		}
		return *n.Stats()
	}
	stream := func() EntrySource {
		r, err := StreamTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	want := run(SliceSource(tr))
	if want.Injected != int64(len(tr)) {
		t.Fatalf("reference run injected %d of %d", want.Injected, len(tr))
	}
	if got := run(stream()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream diverged from slice:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamReplayBoundedMemory is the constant-memory acceptance test:
// a 10-million-packet trace is streamed from disk into a live
// simulation, and the replay's heap high-water mark stays a small
// constant — loading the same trace in memory would hold ~400 MB of
// entries (10M x 40 bytes) before the simulator allocated a thing.
func TestStreamReplayBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-entry trace encode is not short")
	}
	const entries = 10_000_000
	path := filepath.Join(t.TempDir(), "big.spintrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := NewTraceWriter(f)
	// Two packets per cycle: light load, so queue depth — and therefore
	// heap — cannot grow with trace length. Destinations rotate
	// deterministically (no rng: keep the encode fast).
	for i := 0; i < entries; i++ {
		src := i % 16
		dst := (src + 1 + i%15) % 16
		if dst == src {
			dst = (dst + 1) % 16
		}
		if err := tw.Add(TraceEntry{Cycle: int64(i / 2), Src: src, Dst: dst, Length: 1 + i%3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err == nil {
		t.Logf("trace file: %d entries, %.1f MB", entries, float64(fi.Size())/(1<<20))
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tr, err := StreamTrace(rf)
	if err != nil {
		t.Fatal(err)
	}
	n := testNet(t)
	sr := replayOver(t, n, tr)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Replay a window of the trace: enough cycles to stream several
	// hundred thousand entries through the decoder.
	const cycles = 200_000
	n.Run(cycles)
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if sr.Pumped() < int64(2*cycles)-16 {
		t.Fatalf("streamed only %d entries in %d cycles", sr.Pumped(), cycles)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("streamed %d entries, heap growth %.1f MB", sr.Pumped(), float64(growth)/(1<<20))
	// The in-memory alternative holds >=400 MB before injecting a single
	// packet; the streaming path must stay orders of magnitude below.
	const budget = 32 << 20
	if growth > budget {
		t.Fatalf("heap grew %d bytes during streaming replay (budget %d): replay memory is not independent of trace length", growth, budget)
	}
}
