package ring

import (
	"fmt"

	"ceio/internal/pkt"
)

// Entry is one slot of the CEIO software ring. Slow-path entries become
// consumable only after their asynchronous DMA read from on-NIC memory
// completes (Ready flips true); fast-path entries are ready on insertion.
// The per-entry location flag is exactly the flag field described in §4.2
// ("the driver maintains a flag for each ring entry, indicating whether
// the I/O buffer locates in the fast path or the slow path").
type Entry struct {
	Pkt   *pkt.Packet
	Slow  bool
	Ready bool
}

// SWRing is the CEIO software ring (§4.2): a two-producer (fast-path DMA
// completion and slow-path buffer manager), one-consumer FIFO that
// abstracts the two hardware rings behind a single ordered reception
// interface. Because CEIO enforces phase exclusivity between the paths,
// producers never interleave within a flow, so FIFO insertion order is
// delivery order — no per-packet reordering metadata is needed.
//
// The ring's capacity is logical: storage starts at swInitialEntries and
// doubles on demand when a push finds it physically full, up to the
// capacity. A flow that never queues deeply never pays for the worst case.
// Indices are absolute counters, so growth re-homes the live window
// without renumbering any entry.
type SWRing struct {
	entries  []Entry // storage; its length is a power of two <= capacity
	capacity int
	head     uint64
	tail     uint64

	// FaultTolerant converts MarkReady protocol violations from process
	// aborts into counted, reported events. The fault-injection substrate
	// enables it: under injected faults (duplicate or straggling DMA
	// completions after a teardown) an out-of-window MarkReady is an
	// expected degraded-mode event the invariant auditor reports, not an
	// internal bug worth killing the simulation for.
	FaultTolerant bool

	// Statistics.
	FastPushed uint64
	SlowPushed uint64
	Delivered  uint64
	MaxFill    int
	// Violations counts MarkReady protocol violations observed in
	// fault-tolerant mode (out-of-window or fast-path marks).
	Violations uint64
}

// swInitialEntries is the storage a new SWRing allocates; pushes double
// it as needed up to the ring's logical capacity.
const swInitialEntries = 16

// NewSWRing creates a software ring holding up to capacity entries.
func NewSWRing(capacity int) *SWRing {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("ring: capacity must be a positive power of two")
	}
	return &SWRing{entries: make([]Entry, min(capacity, swInitialEntries)), capacity: capacity}
}

// Cap returns the ring's logical capacity in entries, independent of how
// much storage is currently allocated.
func (r *SWRing) Cap() int { return r.capacity }

// Len returns occupied entries (ready or not).
func (r *SWRing) Len() int { return int(r.tail - r.head) }

func (r *SWRing) slot(i uint64) *Entry { return &r.entries[i&uint64(len(r.entries)-1)] }

// grow doubles the storage once it is physically full, re-homing each
// live entry at its absolute index modulo the new length. It reports
// false when the ring is already at its logical capacity. Pushes call it
// only when Len reaches the storage length, so the common push pays no
// more than the one compare it always made; it stays out of line to keep
// the push paths small.
//
//go:noinline
func (r *SWRing) grow() bool {
	if len(r.entries) == r.capacity {
		return false
	}
	next := make([]Entry, 2*len(r.entries))
	for i := r.head; i < r.tail; i++ {
		next[i&uint64(len(next)-1)] = *r.slot(i)
	}
	r.entries = next
	return true
}

// PushFast inserts a fast-path packet (immediately ready). It fails when
// the ring is full.
func (r *SWRing) PushFast(p *pkt.Packet) bool {
	if r.Len() == len(r.entries) && !r.grow() {
		return false
	}
	*r.slot(r.tail) = Entry{Pkt: p, Slow: false, Ready: true}
	r.tail++
	r.FastPushed++
	if l := r.Len(); l > r.MaxFill {
		r.MaxFill = l
	}
	return true
}

// PushSlow inserts a slow-path packet that is not yet readable (its data
// still resides in on-NIC memory). It returns the entry's ring index for
// the later MarkReady call, and ok=false when the ring is full.
func (r *SWRing) PushSlow(p *pkt.Packet) (idx uint64, ok bool) {
	if r.Len() == len(r.entries) && !r.grow() {
		return 0, false
	}
	idx = r.tail
	*r.slot(idx) = Entry{Pkt: p, Slow: true, Ready: false}
	r.tail++
	r.SlowPushed++
	if l := r.Len(); l > r.MaxFill {
		r.MaxFill = l
	}
	return idx, true
}

// MarkReady flips a slow-path entry to consumable once its DMA read into
// host memory completed. Marking an already-consumed or out-of-range
// entry is a protocol violation in the buffer manager: it panics, unless
// the ring is FaultTolerant, in which case the violation is counted and
// the mark discarded (see MarkReadyChecked).
func (r *SWRing) MarkReady(idx uint64) {
	if err := r.MarkReadyChecked(idx); err != nil && !r.FaultTolerant {
		panic(err)
	}
}

// MarkReadyChecked is MarkReady with the protocol violation reported as
// an error instead of a panic. A violating mark is discarded and counted
// in Violations; the ring state is unchanged.
func (r *SWRing) MarkReadyChecked(idx uint64) error {
	if idx < r.head || idx >= r.tail {
		r.Violations++
		return fmt.Errorf("ring: MarkReady(%d) outside live window [%d, %d)", idx, r.head, r.tail)
	}
	e := r.slot(idx)
	if !e.Slow {
		r.Violations++
		return fmt.Errorf("ring: MarkReady(%d) on fast-path entry", idx)
	}
	e.Ready = true
	return nil
}

// PeekHead returns the head entry without consuming, or nil when empty.
// The head may be a not-yet-ready slow entry, in which case the consumer
// must wait (Recv) or continue other work (AsyncRecv).
func (r *SWRing) PeekHead() *Entry {
	if r.Len() == 0 {
		return nil
	}
	return r.slot(r.head)
}

// PopReady consumes and returns the head packet if it is ready; otherwise
// nil. Consumption order is strict FIFO: a ready entry behind a non-ready
// head is never delivered early, which preserves intra-flow ordering.
func (r *SWRing) PopReady() *pkt.Packet {
	if r.Len() == 0 {
		return nil
	}
	e := r.slot(r.head)
	if !e.Ready {
		return nil
	}
	p := e.Pkt
	e.Pkt = nil
	r.head++
	r.Delivered++
	return p
}

// PopAny consumes the head entry regardless of readiness — the flow
// teardown path, which must surrender every queued packet. It returns the
// entry's packet, its location flag, and its readiness; ok=false when the
// ring is empty.
func (r *SWRing) PopAny() (p *pkt.Packet, slow, ready bool, ok bool) {
	if r.Len() == 0 {
		return nil, false, false, false
	}
	e := r.slot(r.head)
	p, slow, ready = e.Pkt, e.Slow, e.Ready
	e.Pkt = nil
	r.head++
	return p, slow, ready, true
}

// At returns the live entry at ring index idx (from PushSlow or the head
// window); it panics outside the live window.
func (r *SWRing) At(idx uint64) *Entry {
	if idx < r.head || idx >= r.tail {
		panic("ring: At outside live window")
	}
	return r.slot(idx)
}

// AppendPendingSlow scans the live window and appends to dst the indices
// of up to max slow entries that are not yet ready, in order. The CEIO
// driver uses this to issue asynchronous DMA reads while the application
// processes fast-path packets (§4.2); passing a reused dst[:0] keeps the
// poll loop allocation-free.
func (r *SWRing) AppendPendingSlow(dst []uint64, max int) []uint64 {
	for i, n := r.head, 0; i < r.tail && n < max; i++ {
		e := r.slot(i)
		if e.Slow && !e.Ready {
			dst = append(dst, i)
			n++
		}
	}
	return dst
}
