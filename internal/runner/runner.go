// Package runner provides the bounded worker pool that fans independent
// simulation runs across CPU cores. Paper-side counterpart (per the
// DESIGN.md substitution table): the evaluation harness that drives each
// testbed configuration of §6.1 — here many simulated machines run
// concurrently instead of one testbed run at a time, without changing
// any measured number.
//
// Every run owns its sim.Engine, so
// runs share no state and execute in any order; determinism comes from
// collecting results into index-ordered slots, which makes the rendered
// output of a parallel run byte-identical to the serial run for a given
// seed (the multi-run orchestration shape gem5-style full-system
// simulators use).
//
// A single Pool is shared process-wide so that nested fan-out —
// experiments running concurrently, each fanning sweep points and seed
// replicas — still respects one global concurrency bound. Only leaf
// jobs (actual simulation runs) occupy a worker; a caller blocked in
// Do/Map holds no worker slot, so nesting cannot deadlock the pool.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default pool width: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool executes submitted jobs on a fixed set of worker goroutines.
// A nil *Pool is valid and runs every job inline on the caller —
// callers never need to special-case the serial path.
type Pool struct {
	jobs    chan *batch
	workers int
	wg      sync.WaitGroup // workers
	once    sync.Once

	mu   sync.Mutex
	free []*batch // finished batches, reused so a steady Do allocates nothing
}

// batch is one Do call: every worker handed the batch claims indices
// from next until all n are taken, so a batch costs one channel handoff
// per participating worker rather than one per index.
type batch struct {
	job  func(i int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup // participating workers

	mu       sync.Mutex
	panicked any // first panic value, re-raised by Do
}

// NewPool starts a pool with the given number of workers. workers <= 1
// returns nil: the serial pool, which runs jobs inline.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers <= 1 {
		return nil
	}
	p := &Pool{jobs: make(chan *batch), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for b := range p.jobs {
		b.run()
	}
}

// run claims and executes indices until the batch is exhausted. A
// panicking job does not stop the worker: its value is kept for Do to
// re-raise, and the remaining indices still run.
func (b *batch) run() {
	defer b.wg.Done()
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		if pv := runOne(b.job, int(i)); pv != nil {
			b.mu.Lock()
			if b.panicked == nil {
				b.panicked = pv
			}
			b.mu.Unlock()
		}
	}
}

// runOne executes one job, converting a panic into a value so the
// submitting goroutine can re-raise it on its own stack.
func runOne(job func(i int), i int) (panicked any) {
	defer func() { panicked = recover() }()
	job(i)
	return nil
}

// Close shuts the workers down. Pending Do calls must have returned.
// Close on a nil (serial) pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// Do runs job(0..n-1) across the pool and returns when all have
// finished. Each index runs exactly once; the caller's goroutine does
// not occupy a worker slot while waiting, so Do may be invoked from
// many goroutines concurrently (and from code that is itself fanned
// out above the leaf level) without risking pool starvation. If any
// job panics, Do re-panics with the first panic value after the
// remaining jobs complete. A steady stream of Do calls allocates
// nothing: batches are recycled, and job is only ever called, never
// wrapped.
func (p *Pool) Do(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	b := p.getBatch()
	b.job, b.n = job, int64(n)
	b.next.Store(0)
	k := min(n, p.workers)
	b.wg.Add(k)
	for i := 0; i < k; i++ {
		p.jobs <- b
	}
	b.wg.Wait()
	panicked := b.panicked
	b.job, b.panicked = nil, nil
	p.putBatch(b)
	if panicked != nil {
		panic(panicked)
	}
}

func (p *Pool) getBatch() *batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return new(batch)
}

func (p *Pool) putBatch(b *batch) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Map runs fn for every index and returns the results in index order,
// regardless of the order in which the workers finished them. This is
// the deterministic-aggregation primitive: result slot i depends only
// on input i, never on scheduling.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.Do(n, func(i int) { out[i] = fn(i) })
	return out
}
