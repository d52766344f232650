// Command spintrace inspects spintrace-v1 files — the repository's one
// trace format (varint-delta encoded, chunked with per-chunk CRCs,
// gzip-framed), written by spinsim -record and consumed by spinsim
// -replay and the spind /v1/simulate trace_b64 field — and converts
// them to and from hand-editable CSV (cycle,src,dst,length,vnet per
// line). This command is the only place CSV traces exist.
//
// Usage:
//
//	spintrace -pack trace.csv -o trace.spintrace
//	spintrace -pack trace.csv -b64 > trace.b64     # for /v1/simulate trace_b64
//	spintrace -unpack trace.spintrace -o trace.csv
//	spintrace -info trace.spintrace
//
// -info streams the file through the validating decoder in constant
// memory, so it doubles as an integrity check: a truncated or
// bit-flipped trace fails with the first corrupt chunk's error.
package main

import (
	"bufio"
	"encoding/base64"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"

	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spintrace: ")
	var (
		pack   = flag.String("pack", "", "CSV trace to encode as spintrace-v1")
		unpack = flag.String("unpack", "", "spintrace-v1 file to decode back to CSV")
		info   = flag.String("info", "", "spintrace-v1 file to summarize (streaming; validates every chunk)")
		b64    = flag.Bool("b64", false, "with -pack: emit standard base64 instead of raw binary")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	modes := 0
	for _, m := range []string{*pack, *unpack, *info} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("exactly one of -pack, -unpack, -info is required")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer func() {
		if err := bw.Flush(); err != nil {
			log.Fatal(err)
		}
	}()

	switch {
	case *pack != "":
		doPack(*pack, bw, *b64)
	case *unpack != "":
		doUnpack(*unpack, bw)
	case *info != "":
		doInfo(*info, bw)
	}
}

// doPack reads a CSV trace and writes it as spintrace-v1 (optionally
// base64-wrapped for direct use as a /v1/simulate trace_b64 value).
func doPack(path string, w io.Writer, asB64 bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := parseCSV(f)
	if err != nil {
		log.Fatal(err)
	}
	if asB64 {
		enc := base64.NewEncoder(base64.StdEncoding, w)
		if err := traffic.EncodeTrace(enc, tr); err != nil {
			log.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			log.Fatal(err)
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := traffic.EncodeTrace(w, tr); err != nil {
		log.Fatal(err)
	}
}

// parseCSV reads a CSV trace, one cycle,src,dst,length,vnet record per
// line, and orders it by cycle (stably), as spintrace-v1 requires.
func parseCSV(r io.Reader) ([]traffic.TraceEntry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var entries []traffic.TraceEntry
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("bad trace: %w", err)
		}
		var vals [5]int64
		for i, f := range rec {
			if vals[i], err = strconv.ParseInt(f, 10, 64); err != nil {
				return nil, fmt.Errorf("bad trace field %q: %w", f, err)
			}
		}
		entries = append(entries, traffic.TraceEntry{
			Cycle: vals[0], Src: int(vals[1]), Dst: int(vals[2]), Length: int(vals[3]), VNet: int(vals[4]),
		})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle })
	return entries, nil
}

// writeCSV prints one entry as a CSV record.
func writeCSV(w io.Writer, e traffic.TraceEntry) error {
	_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", e.Cycle, e.Src, e.Dst, e.Length, e.VNet)
	return err
}

// doUnpack streams a spintrace-v1 file back out as CSV, one entry at a
// time — the decode side never holds the whole trace.
func doUnpack(path string, w io.Writer) {
	reader(path, func(e traffic.TraceEntry) {
		if err := writeCSV(w, e); err != nil {
			log.Fatal(err)
		}
	})
}

// doInfo streams the trace and prints a summary.
func doInfo(path string, w io.Writer) {
	var (
		entries              int64
		firstCycle           int64 = -1
		lastCycle            int64
		flits                int64
		maxSrc, maxDst, maxV int
	)
	reader(path, func(e traffic.TraceEntry) {
		if firstCycle < 0 {
			firstCycle = e.Cycle
		}
		lastCycle = e.Cycle
		entries++
		flits += int64(e.Length)
		if e.Src > maxSrc {
			maxSrc = e.Src
		}
		if e.Dst > maxDst {
			maxDst = e.Dst
		}
		if e.VNet > maxV {
			maxV = e.VNet
		}
	})
	if firstCycle < 0 {
		firstCycle = 0
	}
	fmt.Fprintf(w, "entries   %d (%d flits)\n", entries, flits)
	fmt.Fprintf(w, "cycles    %d..%d\n", firstCycle, lastCycle)
	fmt.Fprintf(w, "terminals >= %d, vnets >= %d\n", maxi(maxSrc, maxDst)+1, maxV+1)
}

// reader streams every entry of a spintrace-v1 file through fn.
func reader(path string, fn func(traffic.TraceEntry)) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := traffic.StreamTrace(bufio.NewReader(f))
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		fn(e)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
