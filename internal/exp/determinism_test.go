package exp

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// figJSON canonicalises a figure map for byte-level comparison.
func figJSON(t *testing.T, figs map[string]*Figure) []byte {
	t.Helper()
	b, err := json.Marshal(figs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFig7DeterministicAcrossWorkers is the seeding contract's
// enforcement: the same Options.Seed must produce byte-identical Figure
// data at workers=1, workers=4, and workers=NumCPU.
func TestFig7DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Cycles: 1200, Seed: 7}
	o.Workers = 1
	base, err := Fig7(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	want := figJSON(t, base)
	for _, workers := range []int{4, runtime.NumCPU()} {
		o.Workers = workers
		figs, err := Fig7(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got := figJSON(t, figs); string(got) != string(want) {
			t.Fatalf("workers=%d produced different figure data than workers=1", workers)
		}
	}
}

// TestFig3DeterministicAcrossWorkers covers the second sweep shape (the
// onset search, whose jobs derive per-rate sub-seeds internally).
func TestFig3DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Cycles: 1500, Seed: 11, Workers: 1}
	base, err := Fig3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	again, err := Fig3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != len(again.Rows) {
		t.Fatal("entry count differs across worker counts")
	}
	for i := range base.Rows {
		if !reflect.DeepEqual(base.Rows[i], again.Rows[i]) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, base.Rows[i], again.Rows[i])
		}
	}
}

// TestSweepCancellation asserts a cancelled context aborts a sweep
// promptly with a context error rather than running it to completion.
func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	// Big enough that a full serial run would take far longer than the
	// cancellation deadline below.
	o := Options{Cycles: 500000, Seed: 7, Workers: 2}
	start := time.Now()
	_, err := Fig7(ctx, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSweepTimeout asserts the per-job timeout surfaces as a deadline
// error naming the offending job.
func TestSweepTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Cycles: 500000, Seed: 7, Workers: 2, Timeout: 30 * time.Millisecond}
	_, err := Fig8b(context.Background(), o)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}
