package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestHotPathGolden is the behavioural contract behind every hot-path
// optimisation: the exact bytes `spinsweep -fig N -json -seed 42
// -cycles 2000` printed before the optimisation work began, checked in
// under testdata/. Any engine change that alters routing decisions, RNG
// consumption order, SM timing, or the JSON encoding shows up here as a
// byte diff. The goldens were generated by the pre-optimisation binary;
// regenerate them only for deliberate, reviewed behaviour changes:
//
//	go build -o /tmp/spinsweep ./cmd/spinsweep
//	/tmp/spinsweep -fig 7 -json -seed 42 -cycles 2000 \
//	    > internal/exp/testdata/fig7_seed42_c2000.golden
func TestHotPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		fig     string
		golden  string
		workers []int
	}{
		// Fig 7 is cheap enough to pin at both serial and parallel worker
		// counts; fig 6 (the dragonfly sweep, ~6x slower) runs once on the
		// parallel path, which subsumes the serial merge logic.
		{fig: "7", golden: "fig7_seed42_c2000.golden", workers: []int{1, 8}},
		{fig: "6", golden: "fig6_seed42_c2000.golden", workers: []int{8}},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			t.Run(fmt.Sprintf("fig%s_workers%d", tc.fig, workers), func(t *testing.T) {
				// Mirror spinsweep's flag path exactly: -seed 42 -cycles
				// 2000 with default warmup and small topologies.
				o := Options{Cycles: 2000, Seed: 42, Workers: workers}
				v, err := Sweep(context.Background(), tc.fig, o)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := EncodeJSON(&got, v); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("fig %s output differs from %s (%d vs %d bytes); the hot path changed observable behaviour",
						tc.fig, tc.golden, got.Len(), len(want))
				}
			})
		}
	}
}
