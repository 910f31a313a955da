package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// This file holds the differential oracle for the timing-wheel engine: a
// textbook binary-heap scheduler with (timestamp, sequence) ordering —
// the structure the wheel replaced — driven in lockstep with the real
// engine on randomized schedule/cancel/Every workloads. Any divergence in
// firing order (including same-timestamp FIFO and far-future cascade
// boundaries) is a wheel bug.

type refEv struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

type refHeapQ []*refEv

func (q refHeapQ) Len() int { return len(q) }
func (q refHeapQ) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refHeapQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeapQ) Push(x any)   { *q = append(*q, x.(*refEv)) }
func (q *refHeapQ) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refSched is the oracle scheduler. Cancellation marks the event and
// skips it at pop time (the lazy strategy the old engine used); the
// wheel's eager unlink must be observationally identical.
type refSched struct {
	now Time
	seq uint64
	q   refHeapQ
}

func (r *refSched) at(t Time, fn func()) *refEv {
	if t < r.now {
		t = r.now
	}
	ev := &refEv{at: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, ev)
	return ev
}

func (r *refSched) pending() int {
	n := 0
	for _, ev := range r.q {
		if !ev.canceled {
			n++
		}
	}
	return n
}

func (r *refSched) step() bool {
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEv)
		if ev.canceled {
			continue
		}
		r.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (r *refSched) runUntil(end Time) {
	for len(r.q) > 0 {
		if r.q[0].canceled {
			heap.Pop(&r.q)
			continue
		}
		if r.q[0].at > end {
			break
		}
		ev := heap.Pop(&r.q).(*refEv)
		r.now = ev.at
		ev.fn()
	}
	if r.now < end {
		r.now = end
	}
}

type refTicker struct {
	r       *refSched
	period  Time
	fn      func()
	ev      *refEv
	stopped bool
}

// every mirrors Engine.Every: first tick at start, fn before the
// reschedule (so fn may cancel its own ticker), and cancel drops the
// pending tick immediately.
func (r *refSched) every(start, period Time, fn func()) (cancel func()) {
	tk := &refTicker{r: r, period: period, fn: fn}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.ev = r.at(r.now+period, tick)
		}
	}
	tk.ev = r.at(start, tick)
	return func() {
		if tk.stopped {
			return
		}
		tk.stopped = true
		tk.ev.canceled = true
	}
}

// --- the differential driver ---------------------------------------------

type fireLog struct {
	at Time
	id uint64
}

// diffState drives the wheel engine and the oracle through an identical
// operation sequence and compares their observable firing logs.
type diffState struct {
	t    *testing.T
	e    *Engine
	r    *refSched
	eLog []fireLog
	rLog []fireLog
	id   uint64

	// Outstanding cancelable one-shot schedules, pairwise.
	eHandles []handle
	rEvents  []*refEv

	// Every cancels, pairwise (engine, oracle).
	eCancels []func()
	rCancels []func()
}

func newDiffState(t *testing.T) *diffState {
	return &diffState{t: t, e: NewEngine(1), r: &refSched{}}
}

// chainDelay derives a deterministic reschedule delay from an event id so
// callbacks never consult shared RNG state (which would entangle the two
// engines' execution).
func chainDelay(id uint64) Time {
	return Time(id*2654435761%100000) + 1
}

// argEvent is the per-event payload of a wheel event scheduled in the
// func(any)-plus-argument form.
type argEvent struct {
	d     *diffState
	id    uint64
	depth int
}

// argFire is the one long-lived func(any) behind every argEvent; its
// chained child rides AtArg with a fresh payload.
func argFire(arg any) {
	ev := arg.(*argEvent)
	d := ev.d
	d.eLog = append(d.eLog, fireLog{d.e.Now(), ev.id})
	if ev.depth > 0 {
		d.e.AtArg(d.e.Now()+chainDelay(ev.id), argFire, &argEvent{d, ev.id*31 + 1, ev.depth - 1})
	}
}

// scheduleBoth schedules a logging event at absolute time t on both
// schedulers. depth > 0 makes the callback reschedule a chained child on
// fire, exercising scheduling from inside dispatch. On the wheel, odd ids
// take the closure form (At/After) and even ids a shared func(any) with a
// per-event payload (AtArg), and a chained child keeps its parent's form,
// so the two forms interleave within the same slots.
func (d *diffState) scheduleBoth(t Time, depth int) {
	id := d.id
	d.id++
	var eFn, rFn func(uint64, int) func()
	eFn = func(id uint64, depth int) func() {
		return func() {
			d.eLog = append(d.eLog, fireLog{d.e.Now(), id})
			if depth > 0 {
				d.e.After(chainDelay(id), eFn(id*31+1, depth-1))
			}
		}
	}
	rFn = func(id uint64, depth int) func() {
		return func() {
			d.rLog = append(d.rLog, fireLog{d.r.now, id})
			if depth > 0 {
				d.r.at(d.r.now+chainDelay(id), rFn(id*31+1, depth-1))
			}
		}
	}
	if id%2 == 0 {
		d.eHandles = append(d.eHandles, d.e.schedule(t, argFire, &argEvent{d, id, depth}))
	} else {
		d.eHandles = append(d.eHandles, d.e.schedule(t, callFunc, eFn(id, depth)))
	}
	d.rEvents = append(d.rEvents, d.r.at(t, rFn(id, depth)))
}

func (d *diffState) everyBoth(start, period Time) {
	id := d.id
	d.id++
	d.eCancels = append(d.eCancels, d.e.Every(start, period, func() {
		d.eLog = append(d.eLog, fireLog{d.e.Now(), id})
	}))
	d.rCancels = append(d.rCancels, d.r.every(start, period, func() {
		d.rLog = append(d.rLog, fireLog{d.r.now, id})
	}))
}

func (d *diffState) cancelBoth(i int) {
	d.e.cancel(d.eHandles[i])
	d.rEvents[i].canceled = true
}

func (d *diffState) stepBoth(n int) {
	for i := 0; i < n; i++ {
		a := d.e.Step()
		b := d.r.step()
		if a != b {
			d.t.Fatalf("Step divergence: wheel ran=%v oracle ran=%v (wheel log %d, oracle log %d)",
				a, b, len(d.eLog), len(d.rLog))
		}
		if !a {
			return
		}
	}
}

func (d *diffState) runUntilBoth(end Time) {
	d.e.RunUntil(end)
	d.r.runUntil(end)
}

func (d *diffState) compareLogs(ctx string) {
	if d.e.Now() != d.r.now {
		d.t.Fatalf("%s: clock divergence: wheel %d oracle %d", ctx, d.e.Now(), d.r.now)
	}
	if len(d.eLog) != len(d.rLog) {
		d.t.Fatalf("%s: fired %d events on the wheel, %d on the oracle", ctx, len(d.eLog), len(d.rLog))
	}
	for i := range d.eLog {
		if d.eLog[i] != d.rLog[i] {
			d.t.Fatalf("%s: firing %d diverges: wheel (t=%d id=%d) oracle (t=%d id=%d)",
				ctx, i, d.eLog[i].at, d.eLog[i].id, d.rLog[i].at, d.rLog[i].id)
		}
	}
}

// randomDelay mixes delays across all wheel levels plus the far-future
// overflow: same-slot (<256ns), level 1-2, level 3, and beyond the 2^32
// horizon. Weighting favours the near levels where the traffic is.
func randomDelay(rng *rand.Rand) Time {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return Time(rng.Intn(256))
	case 4, 5, 6:
		return Time(rng.Intn(1 << 16))
	case 7, 8:
		return Time(rng.Intn(1 << 24))
	default:
		// Past the wheel horizon: the overflow list and its cascade-in.
		return Time(1)<<32 + Time(rng.Intn(1<<20))
	}
}

func runDifferential(t *testing.T, rng *rand.Rand, ops int) {
	d := newDiffState(t)
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 40:
			depth := 0
			if rng.Intn(4) == 0 {
				depth = rng.Intn(3)
			}
			d.scheduleBoth(d.e.Now()+randomDelay(rng), depth)
		case r < 50:
			// Absolute schedule, occasionally in the past (clamped to now
			// by both schedulers).
			at := d.e.Now() + randomDelay(rng) - Time(rng.Intn(1000))
			d.scheduleBoth(at, 0)
		case r < 60:
			start := d.e.Now() + Time(rng.Intn(4096))
			period := Time(1 + rng.Intn(5000))
			d.everyBoth(start, period)
		case r < 72:
			if len(d.eHandles) > 0 {
				d.cancelBoth(rng.Intn(len(d.eHandles)))
			}
		case r < 78:
			if len(d.eCancels) > 0 {
				i := rng.Intn(len(d.eCancels))
				d.eCancels[i]()
				d.rCancels[i]()
			}
		case r < 92:
			d.stepBoth(1 + rng.Intn(8))
		default:
			d.runUntilBoth(d.e.Now() + Time(rng.Intn(1<<18)))
		}
		if d.e.Pending() != d.r.pending() {
			t.Fatalf("op %d: pending divergence: wheel %d oracle %d", op, d.e.Pending(), d.r.pending())
		}
	}
	// Quiesce: stop all tickers, then drain both to emptiness (reaching
	// any overflow events past the 2^32 horizon via full cascades).
	for i := range d.eCancels {
		d.eCancels[i]()
		d.rCancels[i]()
	}
	d.e.Run()
	for d.r.step() {
	}
	d.compareLogs("drain")
	if d.e.Pending() != 0 {
		t.Fatalf("drained wheel still reports %d pending", d.e.Pending())
	}
}

// TestEngineMatchesReferenceHeap drives the wheel and the heap oracle
// through randomized workloads and asserts byte-identical firing
// sequences — order, timestamps, and same-timestamp FIFO ties.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		runDifferential(t, rng, 300)
	}
}

// TestEngineMatchesReferenceAcrossCascades pins the workload to level
// boundaries: bursts land exactly at slot edges (256^k ± 1) where cursor
// cascades happen, the historically bug-prone region of timing wheels.
func TestEngineMatchesReferenceAcrossCascades(t *testing.T) {
	d := newDiffState(t)
	edges := []Time{
		255, 256, 257,
		1<<16 - 1, 1 << 16, 1<<16 + 1,
		1<<24 - 1, 1 << 24, 1<<24 + 1,
		1<<32 - 1, 1 << 32, 1<<32 + 1,
	}
	for round := 0; round < 3; round++ {
		base := d.e.Now()
		for _, edge := range edges {
			// Two events per boundary tests the FIFO tie at the cascade.
			d.scheduleBoth(base+edge, 0)
			d.scheduleBoth(base+edge, 0)
		}
		// Advance by RunUntil exactly onto a few boundaries, then drain.
		d.runUntilBoth(base + 256)
		d.runUntilBoth(base + 1<<16)
		d.compareLogs("mid-cascade")
		d.e.Run()
		for d.r.step() {
		}
		d.compareLogs("cascade drain")
	}
}

// TestEngineMatchesReferenceWhileArenaGrows grows the arena from inside a
// callback while a ticker's handle is live: one event schedules more than
// two slabs' worth of records, so allocID regrows the links array under
// the ticker's pending tick, and then cancels the ticker. A *recLink held
// across that growth would write into the discarded array: the cancel
// would miss its tick or the chains would lose records. Firing order must
// match the reference heap.
func TestEngineMatchesReferenceWhileArenaGrows(t *testing.T) {
	d := newDiffState(t)
	const burst = 2*slabSize + 7
	// arm sets up one scheduler: a ticker logging id 0, and at t=1000 an
	// event that schedules the burst (ids 1..burst, spread over the
	// wheel's lower three levels with same-timestamp ties) and then
	// cancels the ticker.
	arm := func(log *[]fireLog, now func() Time, at func(Time, func()), every func(Time, Time, func()) func()) {
		note := func(id uint64) func() {
			return func() { *log = append(*log, fireLog{now(), id}) }
		}
		cancel := every(10, 300, note(0))
		at(1000, func() {
			for i := 0; i < burst; i++ {
				at(now()+chainDelay(uint64(i%(burst/2))), note(uint64(i+1)))
			}
			cancel()
		})
	}
	arm(&d.eLog, d.e.Now, d.e.At, d.e.Every)
	arm(&d.rLog, func() Time { return d.r.now }, func(t Time, fn func()) { d.r.at(t, fn) }, d.r.every)
	slabs := d.e.ArenaSlabs()
	d.runUntilBoth(1000)
	if got := d.e.ArenaSlabs(); got < slabs+2 {
		t.Fatalf("burst grew the arena from %d to %d slabs, want at least 2 more", slabs, got)
	}
	if d.e.Pending() != burst || d.r.pending() != burst {
		t.Fatalf("pending after the burst: wheel %d oracle %d, want %d (ticker cancelled)", d.e.Pending(), d.r.pending(), burst)
	}
	d.e.Run()
	for d.r.step() {
	}
	d.compareLogs("arena growth")
	if len(d.eLog) != 4+burst { // ticks at 10, 310, 610, 910, then the burst
		t.Fatalf("fired %d events, want %d", len(d.eLog), 4+burst)
	}
	auditFreeList(t, d.e)
}

// FuzzEngineDifferential feeds arbitrary byte strings as operation
// streams to both schedulers. Each pair of bytes selects an operation and
// a magnitude; the firing logs must stay identical.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x41, 0x22, 0x83, 0x35, 0xc4, 0xff})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x01, 0x02, 0x03, 0x80, 0x81, 0x82})
	f.Add([]byte("schedule-cancel-every-step"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDiffState(t)
		for i := 0; i+1 < len(data) && i < 256; i += 2 {
			op, mag := data[i], Time(data[i+1])
			switch op % 6 {
			case 0:
				d.scheduleBoth(d.e.Now()+mag*mag, 0)
			case 1:
				// Spread across levels: magnitude shifted into level
				// op/6's slot range, up through the overflow horizon.
				shift := uint(op/6) % 36
				d.scheduleBoth(d.e.Now()+(mag<<shift), 0)
			case 2:
				d.everyBoth(d.e.Now()+mag, mag+1)
			case 3:
				if n := len(d.eHandles); n > 0 {
					d.cancelBoth(int(mag) % n)
				}
			case 4:
				d.stepBoth(int(mag%8) + 1)
			case 5:
				d.runUntilBoth(d.e.Now() + mag*257)
			}
			if d.e.Pending() != d.r.pending() {
				t.Fatalf("pending divergence: wheel %d oracle %d", d.e.Pending(), d.r.pending())
			}
		}
		for i := range d.eCancels {
			d.eCancels[i]()
			d.rCancels[i]()
		}
		d.e.Run()
		for d.r.step() {
		}
		d.compareLogs("fuzz drain")
	})
}
