package ring_test

import (
	"bytes"
	"slices"
	"testing"

	"ceio/internal/pkt"
	"ceio/internal/ring"
)

// FuzzSWRingProtocol drives a fault-tolerant software ring through an
// arbitrary interleaving of producer pushes, (possibly illegal) MarkReady
// calls, and consumer pops, checked against a reference model. The
// properties under test are the ring's contract: strict FIFO delivery in
// insertion order, no early delivery of unready slow entries, exact
// live-window accounting, and — in fault-tolerant mode — every protocol
// violation counted and rejected without corrupting ring state.
//
// Byte stream encoding: each byte is one operation; op = b & 3
// (0 push-fast, 1 push-slow, 2 mark-ready at absolute index b>>2,
// 3 pop), so any input is a valid op sequence.
func FuzzSWRingProtocol(f *testing.F) {
	f.Add([]byte{0, 1, 3, 6, 3, 3})                          // fast, slow, pop, mark, pop, pop
	f.Add([]byte{1, 1, 1, 3, 10, 6, 3, 3, 3})                // marks out of order
	f.Add([]byte{2, 254, 0, 3, 3})                           // illegal marks: empty window, far index
	f.Add([]byte{1, 6, 6, 3, 2})                             // double mark, mark after pop
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 3, 3, 6, 22, 3, 3, 3}) // mixed phases
	// 20 pushes, 10 pops, 30 pushes: storage doubles twice with the
	// live window wrapped.
	f.Add(slices.Concat(bytes.Repeat([]byte{0}, 20), bytes.Repeat([]byte{3}, 10), bytes.Repeat([]byte{1, 0}, 15)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Wider than the ring's initial storage, so inputs grow the
		// storage while the live window wraps.
		const capacity = 256
		r := ring.NewSWRing(capacity)
		r.FaultTolerant = true

		type entry struct {
			seq   uint64
			slow  bool
			ready bool
		}
		model := make(map[uint64]*entry)
		var head, tail, seq uint64
		var lastPopped uint64
		popped := false

		for _, b := range data {
			switch b & 3 {
			case 0: // push fast
				ok := r.PushFast(&pkt.Packet{Seq: seq})
				wantOK := tail-head < capacity
				if ok != wantOK {
					t.Fatalf("PushFast ok=%v, model says %v (len=%d)", ok, wantOK, tail-head)
				}
				if ok {
					model[tail] = &entry{seq: seq, ready: true}
					tail++
					seq++
				}
			case 1: // push slow
				idx, ok := r.PushSlow(&pkt.Packet{Seq: seq})
				wantOK := tail-head < capacity
				if ok != wantOK {
					t.Fatalf("PushSlow ok=%v, model says %v", ok, wantOK)
				}
				if ok {
					if idx != tail {
						t.Fatalf("PushSlow idx=%d, model tail=%d", idx, tail)
					}
					model[tail] = &entry{seq: seq, slow: true}
					tail++
					seq++
				}
			case 2: // mark ready at an arbitrary absolute index (may be illegal)
				idx := uint64(b >> 2)
				e, live := model[idx]
				legal := live && idx >= head && idx < tail && e.slow
				before := r.Violations
				err := r.MarkReadyChecked(idx)
				if legal {
					if err != nil {
						t.Fatalf("legal MarkReady(%d) rejected: %v", idx, err)
					}
					e.ready = true
				} else {
					if err == nil {
						t.Fatalf("illegal MarkReady(%d) accepted (window [%d,%d))", idx, head, tail)
					}
					if r.Violations != before+1 {
						t.Fatalf("violation not counted: %d -> %d", before, r.Violations)
					}
				}
			case 3: // pop
				p := r.PopReady()
				var want *entry
				if head < tail {
					want = model[head]
				}
				if want == nil || !want.ready {
					if p != nil {
						t.Fatalf("PopReady delivered seq %d with unready/empty head", p.Seq)
					}
					continue
				}
				if p == nil {
					t.Fatalf("PopReady returned nil, model head seq %d is ready", want.seq)
				}
				if p.Seq != want.seq {
					t.Fatalf("FIFO order broken: got seq %d, want %d", p.Seq, want.seq)
				}
				if popped && p.Seq <= lastPopped {
					t.Fatalf("delivery sequence regressed: %d after %d", p.Seq, lastPopped)
				}
				lastPopped, popped = p.Seq, true
				delete(model, head)
				head++
			}
			if got, want := r.Len(), int(tail-head); got != want {
				t.Fatalf("Len=%d, model window=%d", got, want)
			}
		}
	})
}
