// Package sim implements the discrete-event simulation engine underlying
// the CEIO reproduction. Time is measured in integer nanoseconds. All model
// components (NIC, PCIe, caches, CPU cores, congestion control) are driven
// by callbacks scheduled on a single Engine, which makes every run fully
// deterministic for a given seed.
//
// The scheduler is a hierarchical timing wheel (Varghese & Lauck) rather
// than a binary heap: four levels of 256 slots cover a 2^32 ns (~4.29 s)
// horizon at exact-nanosecond resolution on level 0, with a far-future
// overflow list beyond that. Event records are addressed by 32-bit ids and
// split hot from cold. The hot part is one dense id-indexed array of
// 8-byte links (next id and generation): slot lists, the free list and the
// overflow list are index chains through it, so every link walk and
// cascade reads eight records per cache line. The cold part, the 32-byte
// payload (timestamp, callback, argument), lives in fixed slabs with
// stable addresses and is read once per schedule and once per dispatch.
// Steady-state At/After/Step performs zero heap allocations. Level-0 slots
// hold exact timestamps, so dispatching a slot list is batch
// same-timestamp dispatch in FIFO append order: firing order is identical
// to the old heap's (at, seq) order, which keeps every experiment
// byte-identical.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Wheel geometry: numLevels levels of slotCount slots each. Level L slot
// width is 2^(levelBits*L) ns, so level 0 buckets single nanoseconds and
// the whole wheel spans 2^(levelBits*numLevels) ns before the overflow
// list takes over.
const (
	levelBits   = 8
	slotCount   = 1 << levelBits
	slotMask    = slotCount - 1
	numLevels   = 4
	horizonBits = levelBits * numLevels
)

// Arena geometry: records are pool-allocated in fixed slabs and addressed
// by id = slabIndex<<slabShift | offset. Id 0 — slab 0, offset 0 — is the
// reserved nil sentinel, so the zero value of slotList (and of the whole
// slot array) means "empty" and index chains need no separate validity
// bit. Slab 0 therefore hands out slabSize-1 records; every later slab
// hands out slabSize.
const (
	slabShift = 8
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
	nilID     = int32(0)
)

const maxTime = Time(math.MaxInt64)

// eventRec is the cold payload of one scheduled callback, arena-allocated
// and recycled: afn receives arg, which lets hot paths schedule a
// long-lived func(any) plus a pointer instead of allocating a fresh
// closure per event (At and After store their closure as arg to
// callFunc). At 32 bytes a record never straddles a cache line.
type eventRec struct {
	at  Time
	afn func(any)
	arg any
}

// recLink is the hot part of a record, kept in the engine's dense links
// array under the same id as its payload. next is the id of the successor
// in whichever index chain (slot list, overflow, or free list) holds the
// record.
type recLink struct {
	next int32
	// gen is bumped every time the record is freed; a handle whose gen
	// no longer matches refers to an already-fired (or already-cancelled)
	// event and cancels as a no-op. DESIGN.md explains why a wrapped
	// generation cannot cancel a live event.
	gen uint32
}

// slotList is a FIFO chain of arena ids. Append order is firing order
// within a timestamp, which reproduces the heap's seq tie-break. The zero
// value (head == tail == nilID) is an empty list.
type slotList struct {
	head, tail int32
}

// rec resolves an arena id to its payload. Slabs are fixed-size arrays
// behind stable pointers, so payloads never move and the two-level lookup
// compiles to a couple of loads.
func (e *Engine) rec(id int32) *eventRec {
	return &e.arena[id>>slabShift][id&slabMask]
}

// link resolves an arena id to its chain link. The links array regrows
// when the arena gains a slab, so a *recLink must not be held across
// allocID.
func (e *Engine) link(id int32) *recLink {
	return &e.links[id]
}

func (e *Engine) pushList(l *slotList, id int32) {
	e.link(id).next = nilID
	if l.tail == nilID {
		l.head = id
	} else {
		e.link(l.tail).next = id
	}
	l.tail = id
}

func (e *Engine) popList(l *slotList) int32 {
	id := l.head
	if id != nilID {
		k := e.link(id)
		l.head = k.next
		if l.head == nilID {
			l.tail = nilID
		}
		k.next = nilID
	}
	return id
}

// handle identifies a scheduled record for cancellation. The gen snapshot
// makes a stale handle (record already fired and recycled) cancel safely
// as a no-op.
type handle struct {
	id  int32
	gen uint32
}

// Engine is a single-threaded discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	// cursor is the wheel's position; the invariant cursor <= now holds
	// between dispatches, and every live record r satisfies r.at >= cursor
	// and sits at level levelFor(r.at) (or the overflow list).
	cursor Time
	slots  [numLevels][slotCount]slotList
	occ    [numLevels][slotCount / 64]uint64
	// overflow holds records beyond the wheel horizon (>= 2^32 ns ahead
	// of the cursor's top-level block), pulled in when the cursor rolls
	// into their block.
	overflow    slotList
	overflowLen int
	pending     int

	// arena holds the payload of every event record the engine has ever
	// allocated, in slabs with stable addresses; links holds their chain
	// links, one entry per id. freeHead chains recycled ids through links.
	arena    []*[slabSize]eventRec
	links    []recLink
	freeHead int32
	poolFree int

	rng     *rand.Rand
	stopped bool

	// Processed counts events executed so far; useful for run budgets.
	Processed uint64
	// Cascades counts higher-level slot redistributions (wheel rollovers);
	// exported for the engine.* telemetry series.
	Cascades uint64
}

// NewEngine returns an engine at time zero with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending reports the number of scheduled events not yet executed.
// Cancelled events (including a cancelled ticker's queued tick) do not
// count: cancellation unlinks the record immediately.
func (e *Engine) Pending() int { return e.pending }

// OverflowPending reports how many pending events sit beyond the wheel
// horizon on the far-future overflow list.
func (e *Engine) OverflowPending() int { return e.overflowLen }

// PoolFree reports how many recycled event records are available before
// the arena grows by another slab.
func (e *Engine) PoolFree() int { return e.poolFree }

// ArenaSlabs reports how many fixed-size record slabs the arena holds.
// Slab count is a locality proxy: it grows only with the high-water mark
// of simultaneously pending events, never with total events processed, so
// a long steady-state run keeps its entire record working set in the same
// few slabs.
func (e *Engine) ArenaSlabs() int { return len(e.arena) }

// --- record arena ---------------------------------------------------------

// allocID pops a recycled record id, growing the arena by one payload
// slab, and links by as many entries, when the free list is empty.
func (e *Engine) allocID() int32 {
	if e.freeHead == nilID {
		base := int32(len(e.arena)) << slabShift
		e.arena = append(e.arena, new([slabSize]eventRec))
		e.links = append(e.links, make([]recLink, slabSize)...)
		start := int32(0)
		if base == 0 {
			start = 1 // id 0 is the reserved nil sentinel
		}
		for id := base + start; id < base+slabSize-1; id++ {
			e.links[id].next = id + 1
		}
		e.freeHead = base + start
		e.poolFree = int(slabSize - start)
	}
	id := e.freeHead
	k := e.link(id)
	e.freeHead = k.next
	e.poolFree--
	k.next = nilID
	return id
}

// freeID returns record id, whose payload is r, to the free list, dropping
// its callback and capture references immediately so the arena never
// retains dead closures. Callers pass the payload they already resolved.
func (e *Engine) freeID(id int32, r *eventRec) {
	r.afn = nil
	r.arg = nil
	k := e.link(id)
	k.gen++
	k.next = e.freeHead
	e.freeHead = id
	e.poolFree++
}

// --- wheel primitives ----------------------------------------------------

func (e *Engine) setOcc(level, idx int)   { e.occ[level][idx>>6] |= 1 << (idx & 63) }
func (e *Engine) clearOcc(level, idx int) { e.occ[level][idx>>6] &^= 1 << (idx & 63) }

// scanOcc returns the first occupied slot index >= from at the given
// level, if any.
func (e *Engine) scanOcc(level, from int) (int, bool) {
	if from >= slotCount {
		return 0, false
	}
	w := from >> 6
	if m := e.occ[level][w] &^ (1<<(from&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m), true
	}
	for w++; w < slotCount/64; w++ {
		if m := e.occ[level][w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m), true
		}
	}
	return 0, false
}

// levelFor picks the wheel level for a timestamp relative to the cursor:
// the level whose slot coordinate of t first differs from the cursor's.
// numLevels means "overflow list".
func (e *Engine) levelFor(t Time) int {
	d := uint64(t) ^ uint64(e.cursor)
	if d < slotCount {
		return 0
	}
	if d >= 1<<horizonBits {
		return numLevels
	}
	return (bits.Len64(d) - 1) / levelBits
}

// insertRec files record id at the level/slot implied by its timestamp
// at, which the caller has already read from the payload. Slots are
// indexed by the absolute slot coordinate (t >> levelBits*L) & slotMask,
// so an insert and a later cascade agree on placement.
func (e *Engine) insertRec(id int32, at Time) {
	L := e.levelFor(at)
	if L == numLevels {
		e.pushList(&e.overflow, id)
		e.overflowLen++
		return
	}
	idx := int(uint64(at)>>(levelBits*L)) & slotMask
	l := &e.slots[L][idx]
	if l.head == nilID {
		e.setOcc(L, idx)
	}
	e.pushList(l, id)
}

// cascade empties a level-L slot and redistributes its records relative to
// the (just advanced) cursor. Records strictly descend levels, and
// chain-order reinsertion preserves FIFO within equal timestamps.
func (e *Engine) cascade(level, idx int) {
	l := &e.slots[level][idx]
	id := l.head
	if id == nilID {
		return
	}
	e.Cascades++
	l.head, l.tail = nilID, nilID
	e.clearOcc(level, idx)
	for id != nilID {
		next := e.link(id).next
		e.insertRec(id, e.rec(id).at)
		id = next
	}
}

// pullOverflow moves every overflow record whose timestamp landed inside
// the cursor's (new) top-level block onto the wheel, preserving chain
// order for the FIFO tie-break.
func (e *Engine) pullOverflow() {
	top := uint64(e.cursor) >> horizonBits
	prev := nilID
	cur := e.overflow.head
	for cur != nilID {
		next := e.link(cur).next
		if at := e.rec(cur).at; uint64(at)>>horizonBits == top {
			if prev == nilID {
				e.overflow.head = next
			} else {
				e.link(prev).next = next
			}
			if next == nilID {
				e.overflow.tail = prev
			}
			e.overflowLen--
			e.insertRec(cur, at)
		} else {
			prev = cur
		}
		cur = next
	}
}

// popNext removes and returns the earliest pending record id with at <=
// bound, advancing the cursor as far as needed (but never past a slot
// that starts beyond bound, so a bounded RunUntil leaves the wheel
// consistent for later inserts at any t >= now). Returns nilID when no
// pending event is due by bound.
func (e *Engine) popNext(bound Time) int32 {
	if e.pending == 0 {
		return nilID
	}
	for {
		// Level 0 buckets exact timestamps: scan the current 256ns window
		// from the cursor's own slot (inclusive — same-time events fire in
		// append order).
		if idx, ok := e.scanOcc(0, int(uint64(e.cursor))&slotMask); ok {
			t := Time(uint64(e.cursor)&^uint64(slotMask) | uint64(idx))
			if t > bound {
				return nilID
			}
			l := &e.slots[0][idx]
			id := e.popList(l)
			if l.head == nilID {
				e.clearOcc(0, idx)
			}
			e.cursor = t
			e.pending--
			return id
		}
		// Nothing left in the level-0 window: enter the nearest occupied
		// higher-level slot (strictly ahead — the current index of level
		// L>=1 can hold no live record) and cascade it downward.
		cascaded := false
		for L := 1; L < numLevels; L++ {
			idxL := int(uint64(e.cursor)>>(levelBits*L)) & slotMask
			j, ok := e.scanOcc(L, idxL+1)
			if !ok {
				continue
			}
			span := uint64(1) << (levelBits * (L + 1))
			slotStart := Time(uint64(e.cursor)&^(span-1) | uint64(j)<<(levelBits*L))
			if slotStart > bound {
				return nilID
			}
			e.cursor = slotStart
			e.cascade(L, j)
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Wheel empty ahead of the cursor: jump to the overflow minimum's
		// block. Strict < keeps the earliest-scheduled record first among
		// equal timestamps.
		id := e.overflow.head
		if id == nilID {
			return nilID
		}
		minT := e.rec(id).at
		for id = e.link(id).next; id != nilID; id = e.link(id).next {
			if at := e.rec(id).at; at < minT {
				minT = at
			}
		}
		if minT > bound {
			return nilID
		}
		e.cursor = minT
		e.pullOverflow()
	}
}

// advanceCursorTo jumps the cursor forward to t without dispatching —
// used when RunUntil advances the clock past the last due event. Each
// level's newly entered slot is cascaded and the overflow is pulled if
// the top-level block changed, restoring the placement invariant for
// records the jump passed over.
func (e *Engine) advanceCursorTo(t Time) {
	if t <= e.cursor {
		return
	}
	old := e.cursor
	e.cursor = t
	for L := numLevels - 1; L >= 1; L-- {
		if uint64(old)>>(levelBits*L) == uint64(t)>>(levelBits*L) {
			continue
		}
		e.cascade(L, int(uint64(t)>>(levelBits*L))&slotMask)
	}
	if uint64(old)>>horizonBits != uint64(t)>>horizonBits {
		e.pullOverflow()
	}
}

// unlink removes live record id, due at at, from whichever chain holds it.
// The placement invariant makes the lookup O(slot length).
func (e *Engine) unlink(id int32, at Time) bool {
	l := &e.overflow
	level := e.levelFor(at)
	idx := -1
	if level < numLevels {
		idx = int(uint64(at)>>(levelBits*level)) & slotMask
		l = &e.slots[level][idx]
	}
	prev := nilID
	for cur := l.head; cur != nilID; prev, cur = cur, e.link(cur).next {
		if cur != id {
			continue
		}
		next := e.link(cur).next
		if prev == nilID {
			l.head = next
		} else {
			e.link(prev).next = next
		}
		if l.tail == cur {
			l.tail = prev
		}
		if idx >= 0 && l.head == nilID {
			e.clearOcc(level, idx)
		} else if idx < 0 {
			e.overflowLen--
		}
		return true
	}
	return false
}

// --- scheduling API ------------------------------------------------------

func (e *Engine) schedule(t Time, afn func(any), arg any) handle {
	if t < e.now {
		t = e.now
	}
	id := e.allocID()
	r := e.rec(id)
	r.at = t
	r.afn = afn
	r.arg = arg
	e.insertRec(id, t)
	e.pending++
	return handle{id: id, gen: e.link(id).gen}
}

// cancel drops a scheduled record if (and only if) the handle still
// refers to it; a handle whose event already fired is a no-op.
func (e *Engine) cancel(h handle) bool {
	if h.id == nilID || e.link(h.id).gen != h.gen {
		return false
	}
	r := e.rec(h.id)
	if !e.unlink(h.id, r.at) {
		return false
	}
	e.pending--
	e.freeID(h.id, r)
	return true
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; it is clamped to Now so that simulations degrade
// gracefully rather than travel backwards. fn rides as the argument of
// callFunc: a func value is one pointer, so storing it in an any
// allocates nothing beyond what the closure itself captured.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, callFunc, fn) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, callFunc, fn) }

func callFunc(arg any) { arg.(func())() }

// AtArg schedules fn(arg) at absolute time t. Unlike At, it needs no
// closure: hot paths keep one long-lived func(any) and pass the
// per-event state as arg, so scheduling allocates nothing.
func (e *Engine) AtArg(t Time, fn func(any), arg any) { e.schedule(t, fn, arg) }

// AfterArg schedules fn(arg) to run d nanoseconds from now; see AtArg.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) { e.schedule(e.now+d, fn, arg) }

// --- dispatch ------------------------------------------------------------

// dispatch fires a popped record. The record is freed before the callback
// runs, so callbacks observe an engine whose arena already recycled their
// own record (and may reschedule with zero allocations).
func (e *Engine) dispatch(id int32) {
	r := e.rec(id)
	e.now = r.at
	e.Processed++
	afn, arg := r.afn, r.arg
	e.freeID(id, r)
	afn(arg)
}

// Step executes the next event, if any, and reports whether one ran. Step
// is not gated by Stop: a stopped engine resumes on the next Step, Run,
// or RunUntil call.
func (e *Engine) Step() bool {
	id := e.popNext(maxTime)
	if id == nilID {
		return false
	}
	e.dispatch(id)
	return true
}

// Stop halts the currently running Run or RunUntil loop after the
// in-flight event returns. It does not latch: subsequent Run, RunUntil,
// or Step calls resume normally.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		id := e.popNext(maxTime)
		if id == nilID {
			break
		}
		e.dispatch(id)
	}
	e.stopped = false
}

// RunUntil executes events with timestamps <= end, then sets the clock to
// end. Events scheduled beyond end remain queued. If Stop fires during
// the loop, the clock stays at the last dispatched event.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	for !e.stopped {
		id := e.popNext(end)
		if id == nilID {
			break
		}
		e.dispatch(id)
	}
	if !e.stopped && e.now < end {
		e.now = end
		e.advanceCursorTo(end)
	}
	e.stopped = false
}

// Every schedules fn at period intervals starting at start until the
// returned cancel function is invoked. fn runs before the next tick is
// scheduled, so a callback may safely cancel its own ticker. Cancelling
// unlinks the pending tick immediately: it stops counting in Pending and
// releases everything the callback captured.
func (e *Engine) Every(start, period Time, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &ticker{e: e, period: period, fn: fn}
	t.h = e.schedule(start, tickerFire, t)
	return t.cancel
}

type ticker struct {
	e       *Engine
	period  Time
	fn      func()
	h       handle
	stopped bool
}

// tickerFire is the shared dispatch trampoline for Every: one func value
// for all tickers, so a tick reschedule allocates nothing.
func tickerFire(arg any) {
	t := arg.(*ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.h = t.e.schedule(t.e.now+t.period, tickerFire, t)
	}
}

func (t *ticker) cancel() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.e.cancel(t.h)
}
