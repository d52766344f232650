package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSubmitRuns checks the basic result path and that the pool
// derives job seeds with the same SeedFor contract as Run.
func TestPoolSubmitRuns(t *testing.T) {
	p := NewPool[int64](PoolOptions{Workers: 2, Seed: 42})
	defer p.Close()
	got, err := p.Submit(context.Background(), Job[int64]{
		Key: "k1",
		Run: func(_ context.Context, seed int64) (int64, error) { return seed, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := SeedFor(42, "k1"); got != want {
		t.Fatalf("seed = %d, want SeedFor(42, k1) = %d", got, want)
	}
}

// TestPoolQueueFull pins the load-shedding contract: with the workers
// busy and the queue at capacity, Submit fails fast with ErrQueueFull
// instead of blocking.
func TestPoolQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	p := NewPool[int](PoolOptions{Workers: 1, QueueSize: 1})
	defer p.Close()

	blocker := func(ctx context.Context, _ int64) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return 0, nil
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.Submit(context.Background(), Job[int]{Key: "busy", Run: blocker}) }()
	<-started // the worker is occupied
	go func() { defer wg.Done(); p.Submit(context.Background(), Job[int]{Key: "queued", Run: blocker}) }()
	// Wait until the second job occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, _ := p.Depth(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job never showed up in Depth")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := p.Submit(context.Background(), Job[int]{Key: "shed", Run: blocker})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(release) // unblock the occupied worker and the queued job
	wg.Wait()
}

// TestPoolPanicCapture checks that a panicking job surfaces as a
// *PanicError naming the job key and leaves the pool fully serviceable —
// the property cmd/spind relies on to turn panics into 500s instead of
// crashes.
func TestPoolPanicCapture(t *testing.T) {
	p := NewPool[int](PoolOptions{Workers: 1})
	defer p.Close()
	_, err := p.Submit(context.Background(), Job[int]{
		Key: "boom",
		Run: func(context.Context, int64) (int, error) { panic("kaboom") },
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Key != "boom" {
		t.Fatalf("panic key = %q, want boom", pe.Key)
	}
	// The worker that caught the panic must still serve jobs.
	got, err := p.Submit(context.Background(), Job[int]{
		Key: "after",
		Run: func(context.Context, int64) (int, error) { return 7, nil },
	})
	if err != nil || got != 7 {
		t.Fatalf("pool unusable after panic: got %d, err %v", got, err)
	}
}

// TestPoolDepth checks the queue bookkeeping behind Depth (what health
// endpoints and the spind queue gauges sample): depth rises while jobs
// wait, and everything is back to (0, 0) once their results are in.
func TestPoolDepth(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	p := NewPool[int](PoolOptions{Workers: 1, QueueSize: 2})
	defer p.Close()
	defer free() // before Close: a failed wait must not leave a job blocked
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), Job[int]{Key: "", Run: func(ctx context.Context, _ int64) (int, error) {
				<-release
				return 0, nil
			}})
		}()
	}
	waitDepth := func(queued, running int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if q, r := p.Depth(); q == queued && r == running {
				return
			}
			if time.Now().After(deadline) {
				q, r := p.Depth()
				t.Fatalf("never reached (%d queued, %d running): queued=%d running=%d", queued, running, q, r)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The worker takes the first job before the other two arrive, so the
	// queue has room for both (three at once could find it full).
	submit()
	waitDepth(0, 1)
	submit()
	submit()
	waitDepth(2, 1)
	free()
	wg.Wait()
	if q, r := p.Depth(); q != 0 || r != 0 {
		t.Fatalf("depth after every result = (%d queued, %d running), want drained (0, 0)", q, r)
	}
}

// TestPoolTimeout applies the pool-level per-job budget.
func TestPoolTimeout(t *testing.T) {
	p := NewPool[int](PoolOptions{Workers: 1, Timeout: 10 * time.Millisecond})
	defer p.Close()
	_, err := p.Submit(context.Background(), Job[int]{
		Key: "slow",
		Run: func(ctx context.Context, _ int64) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		},
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestPoolCancelWhileQueued checks that a caller whose context dies while
// its job is still queued returns promptly, and the worker discards the
// abandoned job instead of running it.
func TestPoolCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	p := NewPool[int](PoolOptions{Workers: 1, QueueSize: 1})
	defer p.Close()

	go p.Submit(context.Background(), Job[int]{Key: "busy", Run: func(ctx context.Context, _ int64) (int, error) {
		started <- struct{}{}
		<-release
		return 0, nil
	}})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, Job[int]{Key: "abandoned", Run: func(context.Context, int64) (int, error) {
			ran <- struct{}{}
			return 0, nil
		}})
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, _ := p.Depth(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	p.Close()
	select {
	case <-ran:
		t.Fatal("abandoned job still ran")
	default:
	}
}

// TestPoolClose checks drain-on-close and the post-close Submit error.
func TestPoolClose(t *testing.T) {
	var completed atomic.Int64
	p := NewPool[int](PoolOptions{Workers: 2, QueueSize: 4})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), Job[int]{Key: "", Run: func(context.Context, int64) (int, error) {
				time.Sleep(5 * time.Millisecond)
				completed.Add(1)
				return 0, nil
			}})
		}()
	}
	wg.Wait()
	p.Close()
	if n := completed.Load(); n != 4 {
		t.Fatalf("%d jobs completed, want 4", n)
	}
	if _, err := p.Submit(context.Background(), Job[int]{Key: "late"}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// TestRunAndSubmitShareOneWorkerLoop pins that Run is a batch on a Pool,
// not a second scheduler: a job run by a 1-worker Run and the same job
// run by Pool.Submit both panic out of the pool's worker loop, through
// runItem and runOne (the only panic/timeout path), and come back as the
// same *PanicError.
func TestRunAndSubmitShareOneWorkerLoop(t *testing.T) {
	job := Job[int]{Key: "boom", Run: func(context.Context, int64) (int, error) { panic("kaboom") }}
	_, runErr := Run(context.Background(), Options{Workers: 1}, []Job[int]{job})
	p := NewPool[int](PoolOptions{Workers: 1})
	defer p.Close()
	_, submitErr := p.Submit(context.Background(), job)
	for path, err := range map[string]error{"Run": runErr, "Submit": submitErr} {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *PanicError", path, err)
		}
		for _, frame := range []string{"runner.runOne[", "runner.(*Pool[", ".runItem", "runner.NewPool["} {
			if !strings.Contains(string(pe.Stack), frame) {
				t.Errorf("%s: panic stack lacks %q — the job did not run on the pool's worker loop:\n%s", path, frame, pe.Stack)
			}
		}
	}
}
