package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Under a random mix of pushes, pops and filters, the queue holds
// exactly what a plain slice would, in the same order, and keeps no
// value outside its live entries.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	next := 1
	for step := 0; step < 200_000; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			q.Push(next)
			model = append(model, next)
			next++
		case r < 98:
			if len(model) == 0 {
				continue
			}
			if got := q.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		default:
			k := 2 + rng.Intn(5)
			var seen []int
			q.DeleteFunc(func(x int) bool {
				seen = append(seen, x)
				return x%k == 0
			})
			if !slices.Equal(seen, model) {
				t.Fatalf("step %d: DeleteFunc visited %v, want %v", step, seen, model)
			}
			model = slices.DeleteFunc(model, func(x int) bool { return x%k == 0 })
		}
		if q.Len() != len(model) || !slices.Equal(q.Items(), model) {
			t.Fatalf("step %d: queue holds %v, want %v", step, q.Items(), model)
		}
		for i, x := range q.s[:q.head] {
			if x != 0 {
				t.Fatalf("step %d: consumed slot %d still holds %d", step, i, x)
			}
		}
		for i, x := range q.s[len(q.s):cap(q.s)] {
			if x != 0 {
				t.Fatalf("step %d: spare slot %d holds %d", step, len(q.s)+i, x)
			}
		}
	}
}

// standingBacklog pushes b entries, then pops one and pushes one n
// times, so the queue never drains; it checks FIFO order throughout.
func standingBacklog(t *testing.T, q *Queue[int], b, n int) {
	t.Helper()
	for i := 0; i < b; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("popped %d, want %d", got, i)
		}
		q.Push(b + i)
	}
}

// A standing backlog of B entries keeps the backing array within four
// times B however many entries pass through it.
func TestQueueBacklogBound(t *testing.T) {
	for _, b := range []int{1, 2, 3, 5, 6, 7, 13, 64, 100, 1000, 4097} {
		var q Queue[int]
		standingBacklog(t, &q, b, 100_000)
		if q.Len() != b {
			t.Fatalf("backlog %d: queue holds %d", b, q.Len())
		}
		if c := cap(q.s); c > 4*b {
			t.Errorf("backlog %d: backing array grew to %d, want at most %d", b, c, 4*b)
		}
	}
}

// The DMA engine's read queue under a 10-read burst against 4 read tags
// (pcie's TestDMAReadsQueueFIFO): 6 reads wait for a tag, and each
// completion issues another read before its tag frees one, so the queue
// holds 6 or 7. Its storage stays within twice the burst.
func TestQueueReadTagBacklog(t *testing.T) {
	const burst, tags = 10, 4
	var q Queue[int]
	for i := 0; i < burst-tags; i++ {
		q.Push(i)
	}
	for i := 0; i < 200; i++ {
		q.Push(burst - tags + i)
		if got := q.Pop(); got != i {
			t.Fatalf("popped %d, want %d", got, i)
		}
	}
	if c := cap(q.s); c > 2*burst {
		t.Fatalf("read-queue storage grew to %d for a backlog of at most %d", c, burst-tags+1)
	}
}

// Once warm, a standing backlog allocates nothing. testing.AllocsPerRun
// would truncate a rare slide-or-grow allocation to 0, so this counts
// mallocs over the whole run.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	const backlog = 64
	var q Queue[int]
	standingBacklog(t, &q, backlog, 10_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		q.Push(q.Pop())
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("100000 entries through a %d-deep backlog made %d heap allocations, want 0", backlog, n)
	}
}
