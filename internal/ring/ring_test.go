package ring

import (
	"slices"
	"testing"
	"testing/quick"

	"ceio/internal/pkt"
)

func mkPkt(seq uint64) *pkt.Packet { return &pkt.Packet{Seq: seq, Size: 64} }

func TestHWRingFIFO(t *testing.T) {
	r := NewHWRing(8)
	for i := uint64(0); i < 8; i++ {
		if !r.Post(mkPkt(i)) {
			t.Fatalf("post %d failed", i)
		}
	}
	if r.Post(mkPkt(99)) {
		t.Fatal("post to full ring should fail")
	}
	if r.Full != 1 {
		t.Fatalf("full count = %d", r.Full)
	}
	for i := uint64(0); i < 8; i++ {
		p := r.Pop()
		if p == nil || p.Seq != i {
			t.Fatalf("pop %d got %+v", i, p)
		}
	}
	if r.Pop() != nil {
		t.Fatal("pop from empty should be nil")
	}
}

func TestHWRingWraparound(t *testing.T) {
	r := NewHWRing(4)
	seq := uint64(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Post(mkPkt(seq)) {
				t.Fatal("post failed")
			}
			seq++
		}
		for i := 0; i < 3; i++ {
			p := r.Pop()
			if p == nil {
				t.Fatal("unexpected empty")
			}
		}
	}
	if r.Posted != 30 || r.Popped != 30 {
		t.Fatalf("posted=%d popped=%d", r.Posted, r.Popped)
	}
}

func TestHWRingPeekAndBatch(t *testing.T) {
	r := NewHWRing(8)
	for i := uint64(0); i < 5; i++ {
		r.Post(mkPkt(i))
	}
	if p := r.Peek(); p == nil || p.Seq != 0 {
		t.Fatalf("peek = %+v", p)
	}
	if r.Len() != 5 {
		t.Fatal("peek must not consume")
	}
	if out := r.PopLanded(nil, 3); len(out) != 0 {
		t.Fatalf("popped %d descriptors before any DMA landed", len(out))
	}
	for i := uint64(0); i < 5; i++ {
		r.buf[i].Landed = i != 3 // entry 3's DMA is still in flight
	}
	out := r.PopLanded(nil, 2)
	if len(out) != 2 || out[1].Seq != 1 {
		t.Fatalf("batch = %v", out)
	}
	// An append keeps the caller's earlier entries and stops at the
	// unlanded head, leaving it and everything behind it in the ring.
	out = r.PopLanded(out, 10)
	if len(out) != 3 || out[0].Seq != 0 || out[2].Seq != 2 {
		t.Fatalf("appended batch = %v", out)
	}
	if r.Len() != 2 || r.Peek().Seq != 3 {
		t.Fatalf("ring after stopping at the unlanded head: len %d, head %+v", r.Len(), r.Peek())
	}
	r.Peek().Landed = true
	if out = r.PopLanded(out[:0], 10); len(out) != 2 || out[0].Seq != 3 {
		t.Fatalf("batch after the head landed = %v", out)
	}
}

// TestHWRingDrain empties the ring past an unlanded entry, handing over
// only the landed packets.
func TestHWRingDrain(t *testing.T) {
	r := NewHWRing(8)
	for i := uint64(0); i < 4; i++ {
		p := mkPkt(i)
		p.Landed = i != 1 // entry 1's DMA is still in flight
		r.Post(p)
	}
	var got []uint64
	r.Drain(func(p *pkt.Packet) { got = append(got, p.Seq) })
	if !slices.Equal(got, []uint64{0, 2, 3}) || r.Len() != 0 {
		t.Fatalf("drained %v, ring len %d; want [0 2 3] and an empty ring", got, r.Len())
	}
}

func TestHWRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHWRing(3)
}

// Property: any interleaving of posts and pops preserves FIFO order and
// never exceeds capacity.
func TestHWRingFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewHWRing(16)
		nextPost, nextPop := uint64(0), uint64(0)
		for _, isPost := range ops {
			if isPost {
				if r.Post(mkPkt(nextPost)) {
					nextPost++
				}
			} else if p := r.Pop(); p != nil {
				if p.Seq != nextPop {
					return false
				}
				nextPop++
			}
			if r.Len() > r.Cap() || r.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSWRingFastOnly(t *testing.T) {
	r := NewSWRing(8)
	for i := uint64(0); i < 4; i++ {
		if !r.PushFast(mkPkt(i)) {
			t.Fatal("push failed")
		}
	}
	for i := uint64(0); i < 4; i++ {
		p := r.PopReady()
		if p == nil || p.Seq != i {
			t.Fatalf("pop %d got %+v", i, p)
		}
	}
}

func TestSWRingSlowBlocksUntilReady(t *testing.T) {
	r := NewSWRing(8)
	r.PushFast(mkPkt(0))
	idx, ok := r.PushSlow(mkPkt(1))
	if !ok {
		t.Fatal("push slow failed")
	}
	r.PushFast(mkPkt(2))

	if p := r.PopReady(); p == nil || p.Seq != 0 {
		t.Fatalf("first pop = %+v", p)
	}
	// Head is now the unready slow entry: FIFO must block even though a
	// ready fast entry sits behind it.
	if p := r.PopReady(); p != nil {
		t.Fatalf("pop before MarkReady returned %+v", p)
	}
	if head := r.PeekHead(); head == nil || !head.Slow || head.Ready {
		t.Fatalf("head = %+v", head)
	}
	r.MarkReady(idx)
	if p := r.PopReady(); p == nil || p.Seq != 1 {
		t.Fatalf("pop after MarkReady = %+v", p)
	}
	if p := r.PopReady(); p == nil || p.Seq != 2 {
		t.Fatalf("final pop = %+v", p)
	}
}

func TestSWRingPendingSlow(t *testing.T) {
	r := NewSWRing(16)
	r.PushFast(mkPkt(0))
	i1, _ := r.PushSlow(mkPkt(1))
	r.PushFast(mkPkt(2))
	i3, _ := r.PushSlow(mkPkt(3))
	pending := r.AppendPendingSlow(nil, 10)
	if len(pending) != 2 || pending[0] != i1 || pending[1] != i3 {
		t.Fatalf("pending = %v, want [%d %d]", pending, i1, i3)
	}
	r.MarkReady(i1)
	pending = r.AppendPendingSlow(pending[:0], 10)
	if len(pending) != 1 || pending[0] != i3 {
		t.Fatalf("pending after mark = %v", pending)
	}
	if got := r.AppendPendingSlow(nil, 0); len(got) != 0 {
		t.Fatalf("limit 0 gave %v", got)
	}
	// Appending keeps what dst already holds.
	if got := r.AppendPendingSlow([]uint64{99}, 10); len(got) != 2 || got[0] != 99 || got[1] != i3 {
		t.Fatalf("append onto [99] = %v", got)
	}
}

func TestSWRingFull(t *testing.T) {
	r := NewSWRing(4)
	for i := uint64(0); i < 4; i++ {
		r.PushFast(mkPkt(i))
	}
	if r.PushFast(mkPkt(9)) {
		t.Fatal("push to full should fail")
	}
	if _, ok := r.PushSlow(mkPkt(9)); ok {
		t.Fatal("push slow to full should fail")
	}
}

func TestSWRingMarkReadyPanics(t *testing.T) {
	r := NewSWRing(4)
	r.PushFast(mkPkt(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on fast-entry MarkReady")
		}
	}()
	r.MarkReady(0)
}

// Property: arbitrary interleavings of fast pushes, slow pushes, ready
// marks and pops always deliver packets in push order.
func TestSWRingOrderProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0 pushFast, 1 pushSlow, 2 markOldestPending, 3 pop
	}
	f := func(ops []op) bool {
		r := NewSWRing(32)
		var seq, expect uint64
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				if r.PushFast(mkPkt(seq)) {
					seq++
				}
			case 1:
				if _, ok := r.PushSlow(mkPkt(seq)); ok {
					seq++
				}
			case 2:
				if p := r.AppendPendingSlow(nil, 1); len(p) == 1 {
					r.MarkReady(p[0])
				}
			case 3:
				if p := r.PopReady(); p != nil {
					if p.Seq != expect {
						return false
					}
					expect++
				}
			}
		}
		// Drain: mark everything ready, pop all.
		for _, i := range r.AppendPendingSlow(nil, r.Cap()) {
			r.MarkReady(i)
		}
		for {
			p := r.PopReady()
			if p == nil {
				break
			}
			if p.Seq != expect {
				return false
			}
			expect++
		}
		return expect == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refRing is a fixed-size reference SW ring: storage for the whole
// logical capacity up front, the layout before on-demand growth.
type refRing struct {
	e          []Entry
	head, tail uint64
}

func (r *refRing) slot(i uint64) *Entry { return &r.e[i%uint64(len(r.e))] }

// On-demand growth must be invisible: across several doublings with head
// far from 0 (so the live window wraps in storage), every index the ring
// hands out and every entry it returns matches the fixed-size reference,
// and Cap stays the logical capacity.
func TestSWRingGrowthMatchesFixedRing(t *testing.T) {
	const capacity = 1024
	r := NewSWRing(capacity)
	ref := &refRing{e: make([]Entry, capacity)}
	var seq uint64
	push := func(slow bool) {
		t.Helper()
		p := mkPkt(seq)
		seq++
		var idx uint64
		if slow {
			var ok bool
			if idx, ok = r.PushSlow(p); !ok {
				t.Fatalf("PushSlow failed at len %d", r.Len())
			}
		} else {
			if !r.PushFast(p) {
				t.Fatalf("PushFast failed at len %d", r.Len())
			}
			idx = ref.tail
		}
		if idx != ref.tail {
			t.Fatalf("PushSlow idx=%d, reference tail=%d", idx, ref.tail)
		}
		*ref.slot(ref.tail) = Entry{Pkt: p, Slow: slow, Ready: !slow}
		ref.tail++
	}
	check := func() {
		t.Helper()
		if r.Cap() != capacity {
			t.Fatalf("Cap=%d, want logical %d", r.Cap(), capacity)
		}
		if r.Len() != int(ref.tail-ref.head) {
			t.Fatalf("Len=%d, reference %d", r.Len(), ref.tail-ref.head)
		}
		for i := ref.head; i < ref.tail; i++ {
			if got, want := *r.At(i), *ref.slot(i); got != want {
				t.Fatalf("At(%d)=%+v, reference %+v", i, got, want)
			}
		}
		if ref.head < ref.tail {
			if got, want := *r.PeekHead(), *ref.slot(ref.head); got != want {
				t.Fatalf("PeekHead=%+v, reference %+v", got, want)
			}
		}
		var want []uint64
		for i := ref.head; i < ref.tail; i++ {
			if e := ref.slot(i); e.Slow && !e.Ready {
				want = append(want, i)
			}
		}
		got := r.AppendPendingSlow(nil, capacity)
		if len(got) != len(want) {
			t.Fatalf("pending slow %v, reference %v", got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("pending slow %v, reference %v", got, want)
			}
		}
	}
	pop := func() {
		t.Helper()
		p := r.PopReady()
		e := ref.slot(ref.head)
		if ref.head == ref.tail || !e.Ready {
			if p != nil {
				t.Fatalf("PopReady returned seq %d, reference head not ready", p.Seq)
			}
			return
		}
		if p != e.Pkt {
			t.Fatalf("PopReady returned %+v, reference %+v", p, e.Pkt)
		}
		ref.head++
	}

	// Walk head far from 0 while the ring stays shallow: storage must not
	// grow for a flow that never queues.
	for i := 0; i < 1000; i++ {
		push(i%3 == 0)
		if e := ref.slot(ref.head); e.Slow {
			r.MarkReady(ref.head)
			e.Ready = true
		}
		pop()
	}
	if len(r.entries) != swInitialEntries {
		t.Fatalf("shallow ring grew to %d entries", len(r.entries))
	}
	// Fill to capacity with a fast/slow mix through every doubling,
	// checking the whole window after each push.
	for r.Len() < capacity {
		push(seq%4 == 1)
		check()
	}
	if len(r.entries) != capacity {
		t.Fatalf("full ring storage = %d entries, want %d", len(r.entries), capacity)
	}
	if r.PushFast(mkPkt(seq)) {
		t.Fatal("push beyond logical capacity succeeded")
	}
	if _, ok := r.PushSlow(mkPkt(seq)); ok {
		t.Fatal("slow push beyond logical capacity succeeded")
	}
	// Mark pending slow entries out of order and drain, checking FIFO.
	pending := r.AppendPendingSlow(nil, capacity)
	for k := len(pending) - 1; k >= 0; k -= 2 {
		r.MarkReady(pending[k])
		ref.slot(pending[k]).Ready = true
	}
	check()
	for ref.head < ref.tail {
		pop()
		if e := ref.slot(ref.head); ref.head < ref.tail && !e.Ready {
			r.MarkReady(ref.head)
			e.Ready = true
		}
		check()
	}
	if r.MaxFill != capacity {
		t.Fatalf("MaxFill=%d, want %d", r.MaxFill, capacity)
	}
}
