package sim

import (
	"testing"
	"unsafe"
)

// Records split hot from cold. Every chain operation (schedule's tail
// link, pop, cascade walk, free list) touches only the 8-byte link, eight
// to a cache line; the 32-byte payload (at, afn, a 16-byte arg) is read
// once per schedule and once per dispatch and never straddles a line.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(eventRec{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(eventRec{}) = %d, want 32", n)
	}
	if n := unsafe.Sizeof(recLink{}); n != 8 {
		t.Fatalf("unsafe.Sizeof(recLink{}) = %d, want 8", n)
	}
}

// TestArenaLocalityUnderChurn pins the contiguous-arena property the
// sharded fleet relies on: slab count tracks the high-water mark of
// simultaneously pending events, not total events processed. A long
// churning run — schedule/dispatch across cascade boundaries and the
// overflow horizon — must neither grow the arena nor allocate.
func TestArenaLocalityUnderChurn(t *testing.T) {
	e := NewEngine(1)
	afn := func(any) {}

	// Warm to a high-water mark of `depth` pending events.
	const depth = 600
	for i := 0; i < depth; i++ {
		e.AfterArg(Time(1+i*31), afn, nil)
	}
	for e.Pending() > 0 {
		e.Step()
	}
	slabs := e.ArenaSlabs()
	// depth records plus the reserved id-0 sentinel, slabSize per slab.
	if want := (depth + 1 + slabSize - 1) / slabSize; slabs != want {
		t.Fatalf("arena holds %d slabs after %d-deep warmup, want %d", slabs, depth, want)
	}

	// Churn far more events than the arena holds, at spreads that exercise
	// level-0 slots, higher-level cascades, and the overflow list. Pending
	// depth never exceeds the warmed high-water mark, so the arena must
	// not grow and the steady state must stay allocation-free.
	spreads := []Time{3, 1 << 10, 1 << 19, 1 << 27, 1<<33 + 7}
	if avg := testing.AllocsPerRun(200, func() {
		for i, sp := range spreads {
			for j := 0; j < depth/2; j++ {
				e.AfterArg(sp+Time(i*j%257), afn, nil)
			}
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}); avg != 0 {
		t.Fatalf("churn allocates %.2f objects per cycle, want 0", avg)
	}
	if got := e.ArenaSlabs(); got != slabs {
		t.Fatalf("arena grew from %d to %d slabs under churn shallower than the high-water mark", slabs, got)
	}

	// Every record is back on the free list, minus the reserved sentinel.
	if want := slabs*slabSize - 1; e.PoolFree() != want {
		t.Fatalf("drained arena has %d free records, want %d", e.PoolFree(), want)
	}
	auditFreeList(t, e)
}

// TestArenaRecordsAreContiguous verifies the id scheme itself: ids issued
// while draining-free never collide, id 0 is never handed out, and every
// id resolves into a fixed-size slab.
func TestArenaRecordsAreContiguous(t *testing.T) {
	e := NewEngine(1)
	seen := map[int32]bool{}
	for i := 0; i < 3*slabSize; i++ {
		id := e.allocID()
		if id == nilID {
			t.Fatal("allocID returned the reserved nil sentinel")
		}
		if seen[id] {
			t.Fatalf("allocID returned id %d twice", id)
		}
		seen[id] = true
		if int(id>>slabShift) >= len(e.arena) {
			t.Fatalf("id %d points past the %d-slab arena", id, len(e.arena))
		}
		if int(id) >= len(e.links) {
			t.Fatalf("id %d points past the %d links", id, len(e.links))
		}
	}
	if got, want := e.ArenaSlabs(), 4; got != want {
		// 3*slabSize live records plus the sentinel spill into a 4th slab.
		t.Fatalf("arena holds %d slabs for %d live records, want %d", got, 3*slabSize, want)
	}
	if len(e.links) != len(e.arena)*slabSize {
		t.Fatalf("%d links for %d slabs, want one per record", len(e.links), len(e.arena))
	}
	for id := range seen {
		e.freeID(id, e.rec(id))
	}
	if want := 4*slabSize - 1; e.PoolFree() != want {
		t.Fatalf("pool free = %d after releasing all, want %d", e.PoolFree(), want)
	}
}
