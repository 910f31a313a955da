package runner

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		got := Map(p, 100, func(i int) int { return i * i })
		p.Close()
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSerialPoolIsNil(t *testing.T) {
	if NewPool(1) != nil {
		t.Fatal("one worker should be the inline serial pool")
	}
	var p *Pool
	ran := 0
	p.Do(3, func(i int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d jobs, want 3", ran)
	}
	p.Close() // no-op
}

func TestEachIndexRunsOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 500
	var counts [n]int32
	p.Do(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, peak int32
	p.Do(50, func(i int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if c <= old || atomic.CompareAndSwapInt32(&peak, old, c) {
				break
			}
		}
		for j := 0; j < 1000; j++ { // give other workers a chance to overlap
			_ = j
		}
		atomic.AddInt32(&cur, -1)
	})
	if got := atomic.LoadInt32(&peak); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
}

// TestNestedDoDoesNotDeadlock models the experiment-suite shape: many
// goroutines each fan leaf jobs into one shared pool narrower than the
// number of callers.
func TestNestedDoDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(10, func(i int) { atomic.AddInt64(&total, 1) })
		}()
	}
	wg.Wait()
	if total != 80 {
		t.Fatalf("ran %d leaf jobs, want 80", total)
	}
}

func TestPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The pool must survive a panicked job.
		if got := Map(p, 4, func(i int) int { return i }); len(got) != 4 {
			t.Fatalf("pool unusable after panic")
		}
	}()
	p.Do(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("Do should have re-panicked")
}

func TestDoZeroJobs(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Do(0, func(i int) { t.Fatal("no job should run") })
	if got := Map(p, 0, func(i int) int { return 1 }); len(got) != 0 {
		t.Fatal("Map(0) should be empty")
	}
}

// A steady stream of Do calls with a long-lived job function allocates
// nothing: the pool recycles its batches and never wraps the job.
func TestDoSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sum atomic.Int64
	job := func(i int) { sum.Add(int64(i)) }
	p.Do(8, job) // warm the batch free list
	if avg := testing.AllocsPerRun(100, func() { p.Do(33, job) }); avg != 0 {
		t.Fatalf("Do allocates %.2f objects per call, want 0", avg)
	}
}
