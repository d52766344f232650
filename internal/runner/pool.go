package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Pool is the package's one worker loop: a fixed set of workers serving
// a bounded queue of jobs. Daemons (cmd/spind) keep one for their
// lifetime and Submit jobs as requests arrive; Run fills one with a whole
// batch.
//
// The queue is deliberately bounded and Submit fails fast with
// ErrQueueFull instead of blocking — a server sheds load (429) rather
// than accumulating unbounded goroutines until it collapses. Panics in
// jobs are captured into *PanicError by runOne, so one poisoned request
// can never take the daemon down.
type Pool[T any] struct {
	opts  PoolOptions
	queue chan poolItem[T]
	wg    sync.WaitGroup

	mu      sync.Mutex
	queued  int
	running int
	closed  bool
}

// PoolOptions configure a pool for its lifetime.
type PoolOptions struct {
	// Workers is the number of concurrently executing jobs (0 =
	// GOMAXPROCS).
	Workers int
	// QueueSize bounds jobs accepted but not yet running (0 = Workers).
	// A Submit beyond the bound fails immediately with ErrQueueFull.
	QueueSize int
	// Seed is the base seed; each job receives SeedFor(Seed, job.Key).
	Seed int64
	// Timeout bounds each job's execution (0 = unlimited), layered under
	// whatever deadline the Submit context already carries.
	Timeout time.Duration
}

// poolItem is one queued job. idx is its position in a Run batch (-1
// from Submit) and travels back in the poolResult, so one res channel
// can collect a whole batch.
type poolItem[T any] struct {
	ctx context.Context
	job Job[T]
	idx int
	res chan<- poolResult[T]
}

type poolResult[T any] struct {
	idx     int
	val     T
	err     error
	elapsed time.Duration // the job's own execution time
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity. Servers translate it into backpressure (HTTP 429).
var ErrQueueFull = errors.New("runner: pool queue full")

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("runner: pool closed")

// NewPool starts the workers and returns the pool.
func NewPool[T any](o PoolOptions) *Pool[T] {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = o.Workers
	}
	p := &Pool[T]{opts: o, queue: make(chan poolItem[T], o.QueueSize)}
	for w := 0; w < o.Workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for item := range p.queue {
				p.runItem(item)
			}
		}()
	}
	return p
}

// Submit enqueues one job and waits for its result. It returns
// ErrQueueFull immediately when the queue is at capacity and
// ErrPoolClosed after Close; otherwise it blocks until the job finishes
// or ctx is done. A context expiring while the job is still queued
// abandons it cheaply — the worker discards the job without running it.
func (p *Pool[T]) Submit(ctx context.Context, job Job[T]) (T, error) {
	var zero T
	res := make(chan poolResult[T], 1)
	if err := p.enqueue(ctx, job, -1, res); err != nil {
		return zero, err
	}
	select {
	case r := <-res:
		return r.val, r.err
	case <-ctx.Done():
		// The worker sees the expired context and skips or cancels the
		// job; nobody else reads res, so dropping it is safe.
		return zero, fmt.Errorf("runner: job %q: %w", job.Key, ctx.Err())
	}
}

// enqueue queues one job without waiting for it; its result arrives on
// res, which must have room for it (a worker never blocks delivering).
func (p *Pool[T]) enqueue(ctx context.Context, job Job[T], idx int, res chan<- poolResult[T]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("runner: job %q: %w", job.Key, ErrPoolClosed)
	}
	select {
	case p.queue <- poolItem[T]{ctx: ctx, job: job, idx: idx, res: res}:
		p.queued++
		return nil
	default:
		return fmt.Errorf("runner: job %q: %w (%d queued, %d running)", job.Key, ErrQueueFull, p.queued, p.running)
	}
}

// Depth reports the current queue state for health endpoints and tests.
func (p *Pool[T]) Depth() (queued, running int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued, p.running
}

// Close stops accepting jobs and waits for every already-queued job to
// finish. It is idempotent.
func (p *Pool[T]) Close() {
	p.shut()
	p.wg.Wait()
}

// shut closes the queue: the workers exit once it drains.
func (p *Pool[T]) shut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
}

// runItem executes one dequeued job with the shared runOne machinery
// (seed derivation, per-job timeout, panic capture).
func (p *Pool[T]) runItem(item poolItem[T]) {
	p.mu.Lock()
	p.queued--
	p.running++
	p.mu.Unlock()

	start := time.Now()
	r := poolResult[T]{idx: item.idx}
	r.val, r.err = runOne(item.ctx, p.opts, item.job)
	r.elapsed = time.Since(start)

	// The bookkeeping settles before the result is delivered, so a caller
	// that has its result never reads a Depth that still counts the job.
	p.mu.Lock()
	p.running--
	p.mu.Unlock()
	item.res <- r
}
