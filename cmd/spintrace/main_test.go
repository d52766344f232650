package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	want := []traffic.TraceEntry{
		{Cycle: 3, Src: 1, Dst: 2, Length: 5, VNet: 0},
		{Cycle: 1, Src: 0, Dst: 3, Length: 1, VNet: 2},
	}
	var buf bytes.Buffer
	for _, e := range want {
		if err := writeCSV(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := parseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// parseCSV sorts by cycle.
	if !reflect.DeepEqual(got, []traffic.TraceEntry{want[1], want[0]}) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := parseCSV(strings.NewReader("1,2,3\n")); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := parseCSV(strings.NewReader("a,b,c,d,e\n")); err == nil {
		t.Fatal("non-numeric record accepted")
	}
}

// FuzzTraceParser hardens the CSV parser against arbitrary input:
// malformed traces must fail with an error, never a panic, and anything
// that parses must survive a write/parse round trip unchanged (parseCSV
// sorts by cycle, so a second pass is a fixpoint).
//
// Run it with: go test -fuzz FuzzTraceParser -fuzztime 30s ./cmd/spintrace
func FuzzTraceParser(f *testing.F) {
	f.Add([]byte("0,0,1,5,0\n12,3,2,1,0\n"))
	f.Add([]byte("")) // empty trace is valid
	f.Add([]byte("1,2\n"))
	f.Add([]byte("a,b,c,d,e\n"))
	f.Add([]byte("\"0\",0,1,5,0\n"))
	f.Add([]byte("9223372036854775807,0,1,5,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := parseCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — the property under test
		}
		// -pack's next step must be panic-free on anything the parser
		// accepts, whatever verdict it reaches.
		_ = traffic.EncodeTrace(io.Discard, tr)

		var buf bytes.Buffer
		for _, e := range tr {
			if err := writeCSV(&buf, e); err != nil {
				t.Fatalf("accepted trace failed to print: %v", err)
			}
		}
		back, err := parseCSV(&buf)
		if err != nil {
			t.Fatalf("printed trace failed to reload: %v\nprinted: %q", err, buf.String())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\nfirst:  %v\nreload: %v", tr, back)
		}
	})
}
