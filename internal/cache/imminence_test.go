package cache

import (
	"testing"
	"testing/quick"
)

// TestImminentInDistanceIncludesFreeCapacity pins the eviction-distance
// definition RDCA's window controller relies on: a buffer is imminent
// only once the partition's free capacity plus the resident bytes below
// it in LRU order fall inside the threshold. A half-empty partition
// reports nothing — inserts that fit evict no one.
func TestImminentInDistanceIncludesFreeCapacity(t *testing.T) {
	c := NewLLC(1000)
	h1 := insert(c, 1, 300) // LRU tail after the next insert
	insert(c, 2, 300)       // MRU; 400 bytes free
	if got := c.ImminentIn(0, 400); got != 0 {
		t.Fatalf("threshold 400 over 400 free bytes: imminent = %d, want 0", got)
	}
	if got := c.ImminentIn(0, 500); got != 1 {
		t.Fatalf("threshold 500: imminent = %d, want 1 (the tail buffer)", got)
	}
	if got := c.ImminentIn(0, 1200); got != 2 {
		t.Fatalf("threshold 1200: imminent = %d, want 2", got)
	}
	// A state line adds eviction distance but is not counted.
	c.ConsumeIn(0, h1, 1)
	c.TouchState(0, StateLineID(0, 0), 300) // now the LRU tail is buffer 2
	insert(c, 3, 300)
	if got := c.ImminentIn(0, 1200); got != 2 {
		t.Fatalf("threshold 1200 with a state line resident: imminent = %d, want 2", got)
	}
	if got := c.ImminentIn(0, 600); got != 1 {
		t.Fatalf("threshold 600: imminent = %d, want 1 (buffer 2; buffer 3 is out of reach)", got)
	}
}

// TestImminentInEdgeCases: zero/negative thresholds and empty
// partitions report nothing.
func TestImminentInEdgeCases(t *testing.T) {
	c := NewLLC(1000)
	if got := c.ImminentIn(0, 0); got != 0 {
		t.Fatalf("zero threshold: %d, want 0", got)
	}
	if got := c.ImminentIn(0, 500); got != 0 {
		t.Fatalf("empty partition: %d, want 0", got)
	}
	insert(c, 1, 100)
	if got := c.ImminentIn(0, -1); got != 0 {
		t.Fatalf("negative threshold: %d, want 0", got)
	}
}

// TestRecycledBufferNoMissOnRefill is the RDCA recycling property: a
// buffer returned to the NIC free list via Drop (the aggressive-recycle
// demotion) and later re-filled by a fresh DDIO insert is a clean
// insert-then-hit — the recycle itself never shows up as a miss, and
// neither does the re-fill. Under any interleaving of fill / recycle /
// consume where reads only target resident buffers and nothing is
// capacity-evicted, the miss counter stays exactly zero. Each fill of
// one of the 8 pooled slots is a new BufID, as each DMA write is.
func TestRecycledBufferNoMissOnRefill(t *testing.T) {
	type op struct {
		Kind uint8 // %3: 0 = fill, 1 = recycle (Drop), 2 = consume
		Slot uint8 // %8: pooled buffer slot, reused across rounds
	}
	type buf struct {
		id BufID
		h  Handle
	}
	f := func(ops []op) bool {
		// 8 slots × 64B each fits a 1KB region: no capacity evictions, so
		// every miss would have to come from Drop/re-fill accounting.
		c := NewLLC(1024)
		var slots [8]buf // id 0: the slot holds no buffer
		next := BufID(0)
		for _, o := range ops {
			s := &slots[o.Slot%8]
			switch o.Kind % 3 {
			case 0:
				if s.id != 0 {
					continue // a slot is refilled only once recycled
				}
				next++
				*s = buf{next, insert(c, next, 64)}
			case 1:
				c.Drop(s.h, s.id)
				*s = buf{}
			case 2:
				if s.id == 0 {
					continue // reads target in-flight (resident) buffers only
				}
				if !c.ConsumeIn(0, s.h, s.id) {
					t.Logf("consume of resident buffer %d missed", s.id)
					return false
				}
				*s = buf{} // consume retires the line
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return c.Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
