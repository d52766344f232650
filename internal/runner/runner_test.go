package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSeedForDeterministic(t *testing.T) {
	if SeedFor(1, "a") != SeedFor(1, "a") {
		t.Fatal("same (base, key) must derive the same seed")
	}
	if SeedFor(1, "a") == SeedFor(1, "b") {
		t.Fatal("different keys must derive different seeds")
	}
	if SeedFor(1, "a") == SeedFor(2, "a") {
		t.Fatal("different bases must derive different seeds")
	}
	// Neighbouring point keys of one sweep must not collide.
	seen := map[int64]string{}
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0} {
		key := fmt.Sprintf("fig7/WestFirst_3VC/uniform_random@%g", rate)
		s := SeedFor(7, key)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, key)
		}
		seen[s] = key
	}
}

// sweep builds n jobs whose result records the seed each job received.
func sweep(n int) []Job[int64] {
	jobs := make([]Job[int64], n)
	for i := range jobs {
		jobs[i] = Job[int64]{
			Key: fmt.Sprintf("job/%d", i),
			Run: func(_ context.Context, seed int64) (int64, error) { return seed, nil },
		}
	}
	return jobs
}

func TestRunResultsIndependentOfWorkerCount(t *testing.T) {
	base, err := Run(context.Background(), Options{Workers: 1, Seed: 3}, sweep(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		got, err := Run(context.Background(), Options{Workers: workers, Seed: 3}, sweep(40))
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: job %d got seed %d, want %d", workers, i, got[i], base[i])
			}
		}
	}
}

func TestRunKeepsJobOrder(t *testing.T) {
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("order/%d", i),
			Run: func(_ context.Context, _ int64) (int, error) { return i * i, nil },
		}
	}
	got, err := Run(context.Background(), Options{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunPanicCapture(t *testing.T) {
	jobs := sweep(4)
	jobs[2].Run = func(_ context.Context, _ int64) (int64, error) { panic("boom") }
	_, err := Run(context.Background(), Options{Workers: 2}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Key != "job/2" || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic error lost context: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack missing")
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{}, 64)
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("fail/%d", i),
			Run: func(ctx context.Context, _ int64) (int, error) {
				started <- struct{}{}
				if i == 0 {
					return 0, boom
				}
				<-ctx.Done() // a well-behaved job observes cancellation
				return 0, ctx.Err()
			},
		}
	}
	doneCh := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Options{Workers: 4}, jobs)
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if !errors.Is(err, boom) {
			t.Fatalf("triggering error masked: %v", err)
		}
		if !strings.Contains(err.Error(), "fail/0") {
			t.Fatalf("error lost its job key: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a job failure")
	}
	if n := len(started); n >= 64 {
		t.Fatal("failure did not stop the feed")
	}
}

func TestRunContextCancellationPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job[int], 16)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("wait/%d", i),
			Run: func(ctx context.Context, _ int64) (int, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Options{Workers: 4}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestRunPerJobTimeout(t *testing.T) {
	jobs := []Job[int]{{
		Key: "slow",
		Run: func(ctx context.Context, _ int64) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		},
	}}
	_, err := Run(context.Background(), Options{Timeout: 20 * time.Millisecond}, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "slow") || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("timeout error lost context: %v", err)
	}
}

func TestRunProgressEvents(t *testing.T) {
	var events []Event
	o := Options{Workers: 4, Progress: func(e Event) { events = append(events, e) }}
	if _, err := Run(context.Background(), o, sweep(10)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("want 10 events, got %d", len(events))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != 10 {
			t.Fatalf("event %d has Done=%d Total=%d", i, e.Done, e.Total)
		}
		if e.Err != nil {
			t.Fatalf("unexpected job error: %v", e.Err)
		}
	}
}

func TestRunDuplicateKeysRejected(t *testing.T) {
	jobs := sweep(3)
	jobs[2].Key = jobs[0].Key
	if _, err := Run(context.Background(), Options{}, jobs); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate keys must be rejected, got %v", err)
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run[int](context.Background(), Options{}, nil)
	if err != nil || res != nil {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
}

func TestCyclesChunking(t *testing.T) {
	var total int64
	var calls int
	err := Cycles(context.Background(), func(n int64) { total += n; calls++ }, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2500 {
		t.Fatalf("ran %d cycles, want 2500", total)
	}
	if calls != 40 { // 39 x 64 + 4
		t.Fatalf("want 40 chunks, got %d", calls)
	}
}

// TestCyclesStopsOnCancel counts, not times, what a cancellation costs: a
// cancel from inside a slice lets that slice finish and at most one more
// start, and a slice is small (a worker on a 64x64 mesh is free in a
// fraction of a second, not after 1024 cycles of 4.4 ms).
func TestCyclesStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var total, atCancel int64
	err := Cycles(ctx, func(n int64) {
		if n > 64 {
			t.Errorf("a slice of %d cycles", n)
		}
		total += n
		if total >= 2048 && atCancel == 0 {
			atCancel = total
			cancel()
		}
	}, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if total > atCancel+cycleSlice {
		t.Fatalf("kept running after cancel: %d cycles stepped, cancelled at %d", total, atCancel)
	}
}
