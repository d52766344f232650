package traffic

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// spintrace-v1 is the trace format: the one encoding of an exact
// workload on disk and on the wire (cmd/spintrace converts to and from
// hand-editable CSV). It streams, so production-scale traces never have
// to fit in memory.
//
// Layout (inside a standard gzip frame):
//
//	magic   "spintrace-v1\n"
//	chunk*  uvarint entryCount (1..4096)
//	        uvarint payloadLen
//	        payload            entryCount entries, varint-encoded
//	        crc32(payload)     4 bytes little-endian, IEEE
//	end     uvarint 0, then end of gzip stream
//
// Each entry is five uvarints: cycle delta from the previous entry
// (entries are nondecreasing in cycle by construction), src, dst,
// length, vnet. Encoding is canonical: every chunk except the last
// holds exactly chunkEntries entries, varints are minimal-length, and
// nothing may follow the terminator — so any stream the decoder
// accepts re-encodes to the same chunking and payload bytes, and the
// encoder is a byte-level fixpoint.

const (
	spintraceMagic = "spintrace-v1\n"
	// chunkEntries is the fixed chunk granularity: small enough that a
	// reader holds only a few hundred KB, large enough to amortise the
	// per-chunk header and CRC.
	chunkEntries = 4096
	// maxFieldValue bounds src/dst/length/vnet so decoded values always
	// fit an int on 32-bit platforms and arithmetic cannot overflow.
	maxFieldValue = 1 << 30
	// maxEntryBytes is the worst-case encoded entry (five maximal
	// uvarints); it bounds a chunk's declared payload length.
	maxEntryBytes   = 5 * binary.MaxVarintLen64
	maxChunkPayload = chunkEntries * maxEntryBytes
)

// Typed decode failures. Everything the decoder rejects wraps one of
// these, so callers can distinguish "not a spintrace" from "a spintrace
// that went bad in transit" with errors.Is.
var (
	// ErrTraceMagic means the stream does not start with the
	// spintrace-v1 magic (after gzip framing).
	ErrTraceMagic = errors.New("traffic: spintrace: bad magic")
	// ErrTraceCorrupt means the framing was recognised but the body is
	// damaged: CRC mismatch, truncation, non-canonical encoding, or
	// trailing garbage.
	ErrTraceCorrupt = errors.New("traffic: spintrace: corrupt stream")
)

// TraceWriter streams entries into the spintrace-v1 format. Entries
// must arrive in nondecreasing cycle order; Close flushes the final
// partial chunk and the terminator.
type TraceWriter struct {
	zw        *gzip.Writer
	payload   []byte
	count     int
	prevCycle int64
	entries   int64
	closed    bool
	scratch   [binary.MaxVarintLen64]byte
}

// NewTraceWriter starts a spintrace-v1 stream on w. The caller must
// Close the writer to produce a decodable stream.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{zw: gzip.NewWriter(w)}
	// gzip.Writer buffers; any underlying write error surfaces at
	// Flush/Close, which is where Add and Close report it.
	tw.zw.Write([]byte(spintraceMagic))
	return tw
}

func (tw *TraceWriter) putUvarint(v uint64) {
	n := binary.PutUvarint(tw.scratch[:], v)
	tw.payload = append(tw.payload, tw.scratch[:n]...)
}

// Add appends one entry. It validates the same structural rules the
// decoder enforces, so anything a decoder accepts can be re-encoded.
func (tw *TraceWriter) Add(e TraceEntry) error {
	if tw.closed {
		return errors.New("traffic: spintrace: Add after Close")
	}
	switch {
	case e.Cycle < 0:
		return fmt.Errorf("traffic: spintrace: negative cycle %d", e.Cycle)
	case e.Cycle < tw.prevCycle:
		return fmt.Errorf("traffic: spintrace: cycle %d before previous %d (entries must be time-ordered)", e.Cycle, tw.prevCycle)
	case e.Src < 0 || e.Src > maxFieldValue:
		return fmt.Errorf("traffic: spintrace: src %d out of range", e.Src)
	case e.Dst < 0 || e.Dst > maxFieldValue:
		return fmt.Errorf("traffic: spintrace: dst %d out of range", e.Dst)
	case e.Length <= 0 || e.Length > maxFieldValue:
		return fmt.Errorf("traffic: spintrace: length %d out of range", e.Length)
	case e.VNet < 0 || e.VNet > maxFieldValue:
		return fmt.Errorf("traffic: spintrace: vnet %d out of range", e.VNet)
	}
	tw.putUvarint(uint64(e.Cycle - tw.prevCycle))
	tw.putUvarint(uint64(e.Src))
	tw.putUvarint(uint64(e.Dst))
	tw.putUvarint(uint64(e.Length))
	tw.putUvarint(uint64(e.VNet))
	tw.prevCycle = e.Cycle
	tw.count++
	tw.entries++
	if tw.count == chunkEntries {
		return tw.flushChunk()
	}
	return nil
}

// Entries reports how many entries have been added.
func (tw *TraceWriter) Entries() int64 { return tw.entries }

func (tw *TraceWriter) flushChunk() error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(tw.count))
	n += binary.PutUvarint(hdr[n:], uint64(len(tw.payload)))
	if _, err := tw.zw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := tw.zw.Write(tw.payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(tw.payload))
	if _, err := tw.zw.Write(crc[:]); err != nil {
		return err
	}
	tw.payload = tw.payload[:0]
	tw.count = 0
	return nil
}

// Close flushes the final chunk, writes the terminator, and closes the
// gzip frame. The underlying writer is not closed.
func (tw *TraceWriter) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if tw.count > 0 {
		if err := tw.flushChunk(); err != nil {
			return err
		}
	}
	if _, err := tw.zw.Write([]byte{0}); err != nil {
		return err
	}
	return tw.zw.Close()
}

// EncodeTrace writes time-ordered entries in spintrace-v1 format.
func EncodeTrace(w io.Writer, entries []TraceEntry) error {
	tw := NewTraceWriter(w)
	for _, e := range entries {
		if err := tw.Add(e); err != nil {
			return err
		}
	}
	return tw.Close()
}

// TraceReader streams entries out of a spintrace-v1 stream, holding at
// most one decoded chunk (4096 entries) in memory regardless of trace
// length.
type TraceReader struct {
	zr       *gzip.Reader
	br       *bufio.Reader
	chunk    []TraceEntry
	pos      int
	chunkIdx int
	cycle    int64
	sawShort bool // a chunk under chunkEntries must be the last
	done     bool
	err      error
	payload  []byte
}

// StreamTrace opens a spintrace-v1 stream for incremental reading. It
// validates the framing and magic eagerly; entry decoding is lazy, one
// chunk at a time, so arbitrarily large traces replay in constant
// memory.
func StreamTrace(r io.Reader) (*TraceReader, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTraceMagic, err)
	}
	// A spintrace is exactly one gzip member; multistream mode would
	// silently splice concatenated frames past the terminator.
	zr.Multistream(false)
	tr := &TraceReader{zr: zr, br: bufio.NewReader(zr)}
	magic := make([]byte, len(spintraceMagic))
	if _, err := io.ReadFull(tr.br, magic); err != nil || string(magic) != spintraceMagic {
		return nil, ErrTraceMagic
	}
	return tr, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// nextChunk reads and verifies one chunk into tr.chunk.
func (tr *TraceReader) nextChunk() error {
	count, _, err := readCanonicalUvarint(tr.br)
	if err != nil {
		return fmt.Errorf("%w: chunk %d: bad count: %v", ErrTraceCorrupt, tr.chunkIdx, err)
	}
	if count == 0 {
		// Terminator: nothing may follow inside the gzip member, and
		// the member itself must end cleanly.
		if _, err := tr.br.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: data after terminator", ErrTraceCorrupt)
		}
		tr.done = true
		return io.EOF
	}
	if tr.sawShort {
		return fmt.Errorf("%w: chunk %d follows a short chunk", ErrTraceCorrupt, tr.chunkIdx)
	}
	if count > chunkEntries {
		return fmt.Errorf("%w: chunk %d: count %d exceeds %d", ErrTraceCorrupt, tr.chunkIdx, count, chunkEntries)
	}
	if count < chunkEntries {
		tr.sawShort = true
	}
	plen, _, err := readCanonicalUvarint(tr.br)
	if err != nil {
		return fmt.Errorf("%w: chunk %d: bad payload length: %v", ErrTraceCorrupt, tr.chunkIdx, err)
	}
	if plen > maxChunkPayload {
		return fmt.Errorf("%w: chunk %d: payload length %d exceeds %d", ErrTraceCorrupt, tr.chunkIdx, plen, maxChunkPayload)
	}
	if cap(tr.payload) < int(plen) {
		tr.payload = make([]byte, plen)
	}
	tr.payload = tr.payload[:plen]
	if _, err := io.ReadFull(tr.br, tr.payload); err != nil {
		return fmt.Errorf("%w: chunk %d: truncated payload: %v", ErrTraceCorrupt, tr.chunkIdx, err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(tr.br, crcb[:]); err != nil {
		return fmt.Errorf("%w: chunk %d: truncated crc: %v", ErrTraceCorrupt, tr.chunkIdx, err)
	}
	if got, want := crc32.ChecksumIEEE(tr.payload), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("%w: chunk %d: crc mismatch (got %08x want %08x)", ErrTraceCorrupt, tr.chunkIdx, got, want)
	}
	if err := tr.decodePayload(int(count)); err != nil {
		return err
	}
	tr.chunkIdx++
	return nil
}

// decodePayload parses exactly count entries out of tr.payload,
// rejecting non-minimal varints, field overflow, and leftover bytes.
func (tr *TraceReader) decodePayload(count int) error {
	if cap(tr.chunk) < count {
		tr.chunk = make([]TraceEntry, count)
	}
	tr.chunk = tr.chunk[:count]
	off := 0
	field := func(what string, limit uint64) (uint64, error) {
		v, n := binary.Uvarint(tr.payload[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: chunk %d: truncated %s", ErrTraceCorrupt, tr.chunkIdx, what)
		}
		if n != uvarintLen(v) {
			return 0, fmt.Errorf("%w: chunk %d: non-canonical varint for %s", ErrTraceCorrupt, tr.chunkIdx, what)
		}
		if v > limit {
			return 0, fmt.Errorf("%w: chunk %d: %s %d out of range", ErrTraceCorrupt, tr.chunkIdx, what, v)
		}
		off += n
		return v, nil
	}
	for i := 0; i < count; i++ {
		delta, err := field("cycle delta", math.MaxInt64)
		if err != nil {
			return err
		}
		if delta > math.MaxInt64-uint64(tr.cycle) {
			return fmt.Errorf("%w: chunk %d: cycle overflow", ErrTraceCorrupt, tr.chunkIdx)
		}
		tr.cycle += int64(delta)
		src, err := field("src", maxFieldValue)
		if err != nil {
			return err
		}
		dst, err := field("dst", maxFieldValue)
		if err != nil {
			return err
		}
		length, err := field("length", maxFieldValue)
		if err != nil {
			return err
		}
		if length == 0 {
			return fmt.Errorf("%w: chunk %d: zero-length packet", ErrTraceCorrupt, tr.chunkIdx)
		}
		vnet, err := field("vnet", maxFieldValue)
		if err != nil {
			return err
		}
		tr.chunk[i] = TraceEntry{
			Cycle: tr.cycle, Src: int(src), Dst: int(dst), Length: int(length), VNet: int(vnet),
		}
	}
	if off != len(tr.payload) {
		return fmt.Errorf("%w: chunk %d: %d trailing payload bytes", ErrTraceCorrupt, tr.chunkIdx, len(tr.payload)-off)
	}
	tr.pos = 0
	return nil
}

// Next returns the next entry, or io.EOF after the last one. Any other
// error wraps ErrTraceMagic or ErrTraceCorrupt; once an error is
// returned the reader is poisoned and repeats it.
func (tr *TraceReader) Next() (TraceEntry, error) {
	if tr.err != nil {
		return TraceEntry{}, tr.err
	}
	if tr.pos >= len(tr.chunk) {
		if tr.done {
			return TraceEntry{}, io.EOF
		}
		if err := tr.nextChunk(); err != nil {
			tr.err = err
			return TraceEntry{}, err
		}
	}
	e := tr.chunk[tr.pos]
	tr.pos++
	return e, nil
}

// Close releases the gzip reader. It does not close the underlying
// reader.
func (tr *TraceReader) Close() error { return tr.zr.Close() }

// readCanonicalUvarint reads a minimal-length uvarint from br.
func readCanonicalUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var shift uint
	n := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, n, errors.New("uvarint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if n > 1 && b == 0 {
				return 0, n, errors.New("non-canonical uvarint padding")
			}
			return v, n, nil
		}
		shift += 7
	}
}
