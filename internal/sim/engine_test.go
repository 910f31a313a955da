package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 events, ran %d", len(got))
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

// auditFreeList walks the engine's record pool through the links array
// and fails if any recycled record still references a callback or its
// captures.
func auditFreeList(t *testing.T, e *Engine) {
	t.Helper()
	n := 0
	for id := e.freeHead; id != nilID; id = e.link(id).next {
		n++
		r := e.rec(id)
		if r.afn != nil || r.arg != nil {
			t.Fatalf("free-list record %d retains a closure (at=%v)", n, r.at)
		}
	}
	if n != e.poolFree {
		t.Fatalf("free list holds %d records, poolFree says %d", n, e.poolFree)
	}
}

// TestEngineDrainedHoldsNoEvents pins the memory behavior of the record
// pool: freeing a record must nil its afn/arg immediately, otherwise
// a long run retains every fired closure (and the object graph it
// captures) for the lifetime of the pool — the same invariant the old
// heap enforced by zeroing vacated slots.
func TestEngineDrainedHoldsNoEvents(t *testing.T) {
	e := NewEngine(1)
	const n = 64
	for i := 0; i < n; i++ {
		payload := make([]byte, 1024) // captured by the closure
		e.At(Time(i), func() { payload[0]++ })
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("drained engine has %d pending events", e.Pending())
	}
	auditFreeList(t, e)
}

// TestEngineInterleavedPoolZeroing exercises the same invariant while the
// wheel is partially full: recycled records must drop their callbacks
// even as schedules and dispatches interleave.
func TestEngineInterleavedPoolZeroing(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 16; i++ {
		e.At(Time(i), func() {})
	}
	for i := 0; i < 8; i++ {
		e.Step()
	}
	for i := 16; i < 20; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	auditFreeList(t, e)
}

// TestEngineSteadyStateZeroAlloc proves the tentpole guarantee: once the
// record pool is warm, a schedule+dispatch cycle performs no heap
// allocations — for After with a pre-built closure (stored as the
// argument of the callFunc trampoline), for AfterArg, and for a running
// Every ticker.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	fn := func() { ran++ } // captures, so it is a heap closure built once
	e.After(1, fn)
	e.Step() // warm the pool
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(3, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("After+Step allocates %.2f objects per cycle, want 0", avg)
	}
	if ran != 1002 { // the warm-up, AllocsPerRun's own warm-up run, 1000 runs
		t.Fatalf("persistent closure ran %d times, want 1002", ran)
	}
	afn := func(any) {}
	if avg := testing.AllocsPerRun(1000, func() {
		e.AfterArg(3, afn, nil)
		e.Step()
	}); avg != 0 {
		t.Fatalf("AfterArg+Step allocates %.2f objects per cycle, want 0", avg)
	}
	cancel := e.Every(e.Now()+1, 5, func() {})
	defer cancel()
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("Every tick allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestEngineStopThenRunUntilResumes is the regression test for the sticky
// Stop bug: Stop must halt only the loop it interrupts. A later RunUntil
// must dispatch normally and advance the clock to its bound.
func TestEngineStopThenRunUntilResumes(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(0, 10, func() {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	e.RunUntil(100)
	if count != 3 {
		t.Fatalf("count = %d before resume, want 3", count)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v at stop, want 20 (stop must not advance to the bound)", e.Now())
	}
	// The bug: stopped stayed latched, so this ran nothing and left the
	// clock frozen at 20.
	e.RunUntil(100)
	if count != 11 { // ticks at 30,40,...,100
		t.Fatalf("count = %d after resume, want 11", count)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v after resume, want 100", e.Now())
	}
	if !e.Step() {
		t.Fatal("Step after Stop must dispatch the pending tick")
	}
}

// TestEveryCancelDropsPendingTick is the regression test for ticker
// cancellation: cancel must unlink the queued tick immediately — it no
// longer counts in Pending, never increments Processed, and releases the
// callback's captures back to the pool (mirroring the heap-Pop zeroing
// fix of PR 2).
func TestEveryCancelDropsPendingTick(t *testing.T) {
	e := NewEngine(1)
	payload := make([]byte, 1024)
	cancel := e.Every(5, 10, func() { payload[0]++ })
	e.RunUntil(20) // ticks at 5 and 15; next queued at 25
	if e.Pending() != 1 {
		t.Fatalf("pending = %d with ticker armed, want 1", e.Pending())
	}
	processed := e.Processed
	cancel()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0 (tick must be unlinked promptly)", e.Pending())
	}
	e.RunUntil(100)
	if e.Processed != processed {
		t.Fatalf("cancelled tick still dispatched (%d events after cancel)", e.Processed-processed)
	}
	auditFreeList(t, e)
	cancel() // idempotent
	if e.Pending() != 0 {
		t.Fatal("double cancel corrupted pending count")
	}
}

// TestEngineCancelSurvivesRecycling pins the generation guard: a stale
// cancel whose record has already fired and been recycled into a new
// event must not unlink the new event.
func TestEngineCancelSurvivesRecycling(t *testing.T) {
	e := NewEngine(1)
	cancel := e.Every(5, 10, func() {})
	e.RunUntil(6) // tick at 5 fired; its record is back in the pool
	ran := false
	e.At(8, func() { ran = true }) // likely reuses the recycled record
	cancel()                       // must cancel the *new* pending tick only
	e.RunUntil(20)
	if !ran {
		t.Fatal("stale ticker cancel unlinked an unrelated recycled event")
	}
}

// TestEngineCancelAfterGenerationWrap pins the 32-bit generation's
// wraparound: a record whose gen is MaxUint32 wraps to 0 when it fires,
// and a handle taken before the wrap must still cancel as a no-op once
// the id is reused by a new event.
func TestEngineCancelAfterGenerationWrap(t *testing.T) {
	e := NewEngine(1)
	e.At(0, func() {})
	e.Step() // the arena holds a slab and the free list is non-empty
	id := e.freeHead
	e.link(id).gen = math.MaxUint32
	old := e.schedule(1, callFunc, func() {})
	if old.id != id || old.gen != math.MaxUint32 {
		t.Fatalf("schedule took id %d gen %d, want id %d gen MaxUint32", old.id, old.gen, id)
	}
	e.Step()
	ran := false
	reused := e.schedule(2, callFunc, func() { ran = true })
	if reused.id != id || reused.gen != 0 {
		t.Fatalf("reuse took id %d gen %d, want id %d gen 0", reused.id, reused.gen, id)
	}
	if e.cancel(old) {
		t.Fatal("pre-wrap handle cancelled the event that reused its id")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after stale cancel, want 1", e.Pending())
	}
	e.Run()
	if !ran {
		t.Fatal("stale pre-wrap cancel unlinked the reused record")
	}
	auditFreeList(t, e)
}

// TestEngineFarFutureAndOverflow schedules across every wheel level and
// past the 2^32 ns horizon, checking order and clock behavior through
// cascades and overflow pulls.
func TestEngineFarFutureAndOverflow(t *testing.T) {
	e := NewEngine(1)
	times := []Time{
		3, 200, 300, 70_000, 70_001, 9_000_000, 16_777_215, 16_777_216,
		1 << 30, 1<<32 - 1, 1 << 32, 1<<32 + 5, 1 << 33, 1<<34 + 12345,
	}
	var got []Time
	// Schedule in reverse so wheel placement, not schedule order, drives
	// the firing order.
	for i := len(times) - 1; i >= 0; i-- {
		at := times[i]
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if len(got) != len(times) {
		t.Fatalf("ran %d of %d events", len(got), len(times))
	}
	for i, at := range times {
		if got[i] != at {
			t.Fatalf("firing order %v, want %v", got, times)
		}
	}
	if e.OverflowPending() != 0 {
		t.Fatalf("overflow still holds %d records after drain", e.OverflowPending())
	}
}

// TestEngineRunUntilAcrossCascade advances the clock in bounded steps
// that land inside higher-level slots and across the overflow horizon;
// events scheduled after each advance must still fire in order.
func TestEngineRunUntilAcrossCascade(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	note := func(at Time) func() { return func() { got = append(got, at) } }
	e.At(300, note(300))       // level 1
	e.At(70_000, note(70_000)) // level 2
	e.RunUntil(290)            // bounded: must not dispatch 300
	if len(got) != 0 {
		t.Fatalf("dispatched %v before bound", got)
	}
	if e.Now() != 290 {
		t.Fatalf("clock = %v, want 290", e.Now())
	}
	e.At(295, note(295)) // lands between bound and the pending 300
	e.RunUntil(1 << 33)
	want := []Time{295, 300, 70_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Past the horizon: new events near now must still come before a
	// far-future one scheduled earlier.
	e.At(e.Now()+1<<32+7, note(-1))
	e.At(e.Now()+10, note(-2))
	e.Run()
	if got[3] != -2 || got[4] != -1 {
		t.Fatalf("post-horizon order wrong: %v", got[3:])
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEnginePastClamp(t *testing.T) {
	e := NewEngine(1)
	var ran bool
	e.At(100, func() {
		e.At(50, func() { ran = true }) // in the past: clamps to now
		if e.Now() != 100 {
			t.Fatalf("now = %v", e.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("clamped event did not run")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(0, 10, func() { count++ })
	e.RunUntil(95)
	if count != 10 { // ticks at 0,10,...,90
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 95 {
		t.Fatalf("clock = %v, want 95", e.Now())
	}
	e.RunUntil(100)
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(0, 10, func() {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEveryCancel(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var cancel func()
	cancel = e.Every(0, 10, func() {
		count++
		if count == 5 {
			cancel()
		}
	})
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var out []int
		for i := 0; i < 100; i++ {
			e.After(Time(e.Rand().Intn(1000)), func() { out = append(out, e.Rand().Intn(1<<20)) })
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of scheduled times, execution order is a stable
// sort of the schedule.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(7)
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, raw := range times {
			at, i := Time(raw), i
			e.At(at, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		for k := 1; k < len(got); k++ {
			if got[k].at < got[k-1].at {
				return false
			}
			if got[k].at == got[k-1].at && got[k].idx < got[k-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerialisation(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, 1e9, 0) // 1 byte per ns
	var done []Time
	note := func(any) { done = append(done, e.Now()) }
	s.SubmitArg(100, note, nil)
	s.SubmitArg(50, note, nil)
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Fatalf("completions = %v, want [100 150]", done)
	}
}

func TestServerLatencyPipelining(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, 1e9, 500)
	var done []Time
	note := func(any) { done = append(done, e.Now()) }
	s.SubmitArg(100, note, nil)
	s.SubmitArg(100, note, nil)
	e.Run()
	// Second item begins serialising at t=100 and completes at 200+500:
	// the latency stages overlap.
	if len(done) != 2 || done[0] != 600 || done[1] != 700 {
		t.Fatalf("completions = %v, want [600 700]", done)
	}
}

func TestServerQueueDelay(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, 1e9, 0)
	s.Submit(1000)
	if d := s.QueueDelay(); d != 1000 {
		t.Fatalf("queue delay = %v, want 1000", d)
	}
	e.RunUntil(400)
	if d := s.QueueDelay(); d != 600 {
		t.Fatalf("queue delay = %v, want 600", d)
	}
}

func TestServerStats(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, 2e9, 0)
	s.Submit(200)
	s.Submit(200)
	e.Run()
	if s.ItemsServed != 2 || s.BytesServed != 400 {
		t.Fatalf("items=%d bytes=%d", s.ItemsServed, s.BytesServed)
	}
	if s.BusyTime != 200 { // 400 bytes at 2 B/ns
		t.Fatalf("busy=%v want 200", s.BusyTime)
	}
	if s.MaxQueueing != 100 {
		t.Fatalf("max queueing=%v want 100", s.MaxQueueing)
	}
}
