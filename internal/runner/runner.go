// Package runner is a generic parallel job engine for the experiment
// sweeps. Every simulation point of a sweep becomes a Job with a stable
// string key; Run executes the jobs on a bounded worker pool and returns
// their results in job order.
//
// Determinism is the central contract: a job's random seed is derived
// from the base seed and the job key alone (SeedFor), never from
// scheduling order, so a sweep produces bit-identical results at any
// worker count. Cancellation flows through context.Context — jobs are
// expected to poll their context between simulation chunks — and a
// panicking job is captured into a *PanicError instead of taking the
// process down.
package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"
)

// Options configure one Run call.
type Options struct {
	// Workers bounds how many jobs execute concurrently. Zero or
	// negative means GOMAXPROCS. Worker count never affects results,
	// only wall-clock time.
	Workers int
	// Seed is the base seed; each job receives SeedFor(Seed, job.Key).
	Seed int64
	// Timeout bounds each job's execution (0 = unlimited). A job that
	// overruns sees its context expire and is reported as a failure.
	Timeout time.Duration
	// Progress, when non-nil, receives one Event per completed job.
	// Events are delivered serially; the callback need not be
	// goroutine-safe.
	Progress ProgressFunc
}

// Event describes one finished job.
type Event struct {
	Key     string        // the job's key
	Index   int           // the job's position in the input slice
	Done    int           // completed jobs so far, including this one
	Total   int           // total jobs in this Run
	Err     error         // nil on success
	Elapsed time.Duration // the job's own execution time
	Note    string        // Run leaves it empty: a line its caller may add to the batch's last event
}

// ProgressFunc observes job completions.
type ProgressFunc func(Event)

// Job is one unit of work. Run receives a context — cancelled when the
// pool shuts down or the per-job timeout expires — and the job's derived
// seed. Long-running bodies should poll ctx.Err() periodically so
// cancellation is prompt.
type Job[T any] struct {
	Key string
	Run func(ctx context.Context, seed int64) (T, error)
}

// PanicError wraps a panic recovered from a job.
type PanicError struct {
	Key   string
	Value interface{}
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Key, e.Value)
}

// SeedFor derives the deterministic seed of the job identified by key
// under a base seed: FNV-1a over the base seed and the key, finalised
// with a splitmix64 mix so related keys ("x@0.1", "x@0.2") land far
// apart. The scheme is stable across releases — recorded results remain
// reproducible.
func SeedFor(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(mix64(h.Sum64()))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Run executes jobs on a worker pool and returns their results in job
// order. On the first failure the remaining jobs are cancelled, finished
// jobs' results are kept, and the triggering error (wrapped with its job
// key) is returned. Job keys must be unique — they name the job's seed
// and any duplicate would silently run two jobs on identical randomness.
//
// Run is a batch on a Pool: it fills a pool whose queue holds the whole
// batch, closes the queue, and collects completions as they arrive —
// which is where first-error cancellation and the Index/Done/Total of
// each progress Event come from. The workers, and runOne under them, are
// the pool's.
func Run[T any](ctx context.Context, o Options, jobs []Job[T]) ([]T, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if prev, dup := seen[j.Key]; dup {
			return nil, fmt.Errorf("runner: duplicate job key %q (jobs %d and %d)", j.Key, prev, i)
		}
		seen[j.Key] = i
	}
	// No more workers than jobs; NewPool resolves Workers <= 0 to GOMAXPROCS.
	p := NewPool[T](PoolOptions{Workers: min(o.Workers, len(jobs)), QueueSize: len(jobs), Seed: o.Seed, Timeout: o.Timeout})
	defer p.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Sized to the batch, so a worker never blocks on delivering.
	res := make(chan poolResult[T], len(jobs))
	for i, job := range jobs {
		if err := p.enqueue(ctx, job, i, res); err != nil {
			return nil, err
		}
	}
	p.shut()

	results := make([]T, len(jobs))
	var firstErr error
	for done := 1; done <= len(jobs); done++ {
		r := <-res
		if r.err == nil {
			results[r.idx] = r.val
		} else if firstErr == nil {
			// Jobs cancelled as a consequence of an earlier failure must
			// not mask it; the ones still queued see the cancelled
			// context in runOne and never start.
			firstErr = r.err
			cancel()
		}
		if o.Progress != nil {
			o.Progress(Event{
				Key: jobs[r.idx].Key, Index: r.idx, Done: done, Total: len(jobs),
				Err: r.err, Elapsed: r.elapsed,
			})
		}
	}
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}

// runOne executes a single job with panic capture and the per-job
// timeout applied.
func runOne[T any](ctx context.Context, o PoolOptions, job Job[T]) (res T, err error) {
	if err = ctx.Err(); err != nil {
		return res, fmt.Errorf("runner: job %q: %w", job.Key, err)
	}
	jctx := ctx
	if o.Timeout > 0 {
		var jcancel context.CancelFunc
		jctx, jcancel = context.WithTimeout(ctx, o.Timeout)
		defer jcancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: job.Key, Value: r, Stack: debug.Stack()}
		}
	}()
	res, err = job.Run(jctx, SeedFor(o.Seed, job.Key))
	if err != nil {
		if jctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			return res, fmt.Errorf("runner: job %q exceeded its %v timeout: %w", job.Key, o.Timeout, err)
		}
		if _, isPanic := err.(*PanicError); !isPanic {
			err = fmt.Errorf("runner: job %q: %w", job.Key, err)
		}
	}
	return res, err
}

// cycleSlice is how many cycles Cycles steps between two polls of its
// context: what a cancelled or timed-out job still runs before its worker
// is free. It is small at every network size — 64 cycles are ≈ 1.5 ms on a
// saturated 8x8 mesh, ≈ 4 ms on the 1024-node dragonfly and ≈ 0.3 s on a
// 64x64 mesh (1024 were 25 ms, 68 ms and 4.5 s; BENCH_sim.json) — and a
// poll is ≈ 20 ns against ≥ 1.8 µs of stepping even on an empty mesh.
const cycleSlice = 64

// Cycles advances a chunked computation — typically a simulator's Run
// method — in slices of cycleSlice, polling ctx between slices so
// cancellation and timeouts are honoured within one slice. Chunked stepping
// is state-for-state identical to a single run(total) call for any
// step-based simulator.
func Cycles(ctx context.Context, run func(int64), total int64) error {
	for done := int64(0); done < total; {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(cycleSlice, total-done)
		run(n)
		done += n
	}
	return ctx.Err()
}
