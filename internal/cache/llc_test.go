package cache

import (
	"testing"
	"testing/quick"

	"ceio/internal/sim"
)

// insert DMA-writes the fresh packet buffer id into partition 0, its
// payload filling its footprint, and returns its handle.
func insert(c *LLC, id BufID, size int64) Handle {
	h, _ := c.InsertIOSized(0, id, size, size)
	return h
}

func TestLLCHitOnResident(t *testing.T) {
	c := NewLLC(1000)
	h := insert(c, 1, 500)
	if !c.ConsumeIn(0, h, 1) {
		t.Fatal("expected hit")
	}
	if c.Occupancy() != 0 || c.Len() != 0 {
		t.Fatalf("occupancy=%d len=%d after consume", c.Occupancy(), c.Len())
	}
	if c.Hits != 1 || c.Misses != 0 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLLCMissOnEvicted(t *testing.T) {
	c := NewLLC(1000)
	var evicted []BufID
	c.SetEvictHandler(func(id BufID) { evicted = append(evicted, id) })
	h1 := insert(c, 1, 600)
	h2 := insert(c, 2, 600) // evicts 1 (LRU)
	if c.Resident(h1, 1) {
		t.Fatal("buffer 1 should have been evicted")
	}
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	if c.ConsumeIn(0, h1, 1) {
		t.Fatal("expected miss on evicted buffer")
	}
	if !c.ConsumeIn(0, h2, 2) {
		t.Fatal("expected hit on resident buffer")
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

// TestLLCStaleHandle pins the generation check on packet handles: once a
// buffer is evicted, its arena node is reused for the next insert, so
// the first buffer's handle names the new owner's node. Reads through
// the stale handle must miss and its drop must be a no-op that leaves
// the new owner resident.
func TestLLCStaleHandle(t *testing.T) {
	c := NewLLC(1000)
	h1 := insert(c, 1, 600)
	h2 := insert(c, 2, 600) // evicts 1 and frees its node
	h3 := insert(c, 3, 400) // takes 1's node
	if h3 != h1 {
		t.Fatalf("buffer 3 got node %d, want buffer 1's freed node %d", h3, h1)
	}
	if c.ProbeIn(0, h1, 1) || c.ConsumeIn(0, h1, 1) {
		t.Fatal("read through a stale handle hit the node's new owner")
	}
	if c.Misses != 2 || c.Hits != 0 {
		t.Fatalf("stale reads counted hits=%d misses=%d, want 0/2", c.Hits, c.Misses)
	}
	if c.Drop(h1, 1) {
		t.Fatal("drop through a stale handle reported a resident buffer")
	}
	if !c.Resident(h3, 3) || !c.Resident(h2, 2) || c.Len() != 2 || c.Occupancy() != 1000 {
		t.Fatalf("stale accesses disturbed the resident set: len %d occupancy %d", c.Len(), c.Occupancy())
	}
	if !c.ConsumeIn(0, h3, 3) {
		t.Fatal("the node's new owner misses")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLLCLRUOrder(t *testing.T) {
	c := NewLLC(300)
	line := StateLineID(0, 1)
	c.TouchState(0, line, 100)
	insert(c, 2, 100)
	insert(c, 3, 100)
	// Touch the line again so buffer 2 becomes LRU.
	if hit, _, _ := c.TouchState(0, line, 100); !hit {
		t.Fatal("touch of a resident line should hit")
	}
	_, ev := c.InsertIOSized(0, 4, 100, 60)
	if len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	if ev[0].Payload != 100 || ev[0].Part != 0 {
		t.Fatalf("evicted payload %d partition %d, want the size and partition recorded at insert", ev[0].Payload, ev[0].Part)
	}
}

func TestLLCOversizeBypasses(t *testing.T) {
	c := NewLLC(100)
	h, ev := c.InsertIOSized(0, 1, 200, 200)
	if len(ev) != 1 || ev[0].ID != 1 || h != 0 {
		t.Fatalf("oversize insert should bypass with no handle, got %v and handle %d", ev, h)
	}
	if c.Resident(h, 1) || c.Occupancy() != 0 {
		t.Fatal("oversize buffer must not be resident")
	}
}

// TestLLCOversizeMissCountedOnce pins the hit/miss accounting of the
// bypass path: a buffer larger than the DDIO region never becomes
// resident, and the miss is charged exactly once — when the consumer
// reads it — not a second time at insert. (Regression: the insert used
// to also increment Misses, double-counting every oversized buffer and
// inflating MissRate.)
func TestLLCOversizeMissCountedOnce(t *testing.T) {
	c := NewLLC(100)
	h := insert(c, 1, 200)
	if c.Misses != 0 {
		t.Fatalf("insert of oversized buffer charged %d misses, want 0 (miss belongs to the consumer)", c.Misses)
	}
	if c.ConsumeIn(0, h, 1) {
		t.Fatal("consume of non-resident oversized buffer must miss")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("after insert+consume: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}
	if got := c.MissRate(); got != 1.0 {
		t.Fatalf("miss rate = %v, want 1.0", got)
	}

	// Streaming (ProbeIn) consumer, as used by CPU-bypass flows.
	c.ResetStats()
	h = insert(c, 2, 150)
	if c.ProbeIn(0, h, 2) {
		t.Fatal("probe of non-resident oversized buffer must miss")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("bypass path: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}

	// A resident buffer still counts one hit, so the rate stays balanced.
	h = insert(c, 3, 50)
	if !c.ConsumeIn(0, h, 3) {
		t.Fatal("expected hit on resident buffer")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
}

func TestLLCDrop(t *testing.T) {
	c := NewLLC(100)
	h := insert(c, 1, 50)
	if !c.Drop(h, 1) {
		t.Fatal("drop of a resident buffer reported it absent")
	}
	if c.Resident(h, 1) || c.Occupancy() != 0 {
		t.Fatal("drop should remove without stats")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("drop must not count as hit or miss")
	}
	if c.Drop(h, 1) || c.Drop(0, 99) {
		t.Fatal("dropping an absent buffer must be a no-op")
	}
}

func TestLLCResetStats(t *testing.T) {
	c := NewLLC(100)
	c.ConsumeIn(0, insert(c, 1, 50), 1)
	c.ResetStats()
	if c.Hits != 0 || c.Insertions != 0 {
		t.Fatal("stats not reset")
	}
}

// Property: under any mixed insert/consume workload the occupancy bound
// and list/handle consistency hold. A consume names any buffer inserted
// so far, so reads through stale handles are part of the mix.
func TestLLCInvariantsProperty(t *testing.T) {
	type op struct {
		Insert bool
		Pick   uint8
		Size   uint8
	}
	f := func(ops []op) bool {
		c := NewLLC(1024)
		var handles []Handle // handles[id-1] is buffer id's
		for _, o := range ops {
			if o.Insert {
				handles = append(handles, insert(c, BufID(len(handles)+1), int64(o.Size)+1))
			} else if len(handles) > 0 {
				k := int(o.Pick) % len(handles)
				c.ConsumeIn(0, handles[k], BufID(k+1))
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
			if c.Occupancy() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLLCSteadyStateZeroAlloc pins the arena's recycling: once the node
// arena and four modules' state tables have grown to the resident set's
// high-water mark, DDIO insert/consume churn and state-line touches that
// hit, refill and evict allocate nothing.
func TestLLCSteadyStateZeroAlloc(t *testing.T) {
	const (
		stateLines = 64 << 10 // 4 MB of 64 B state lines
		inFlight   = 1024     // 2 MB of 2 KB I/O buffers
	)
	c := NewLLC(6 << 20)
	next, x := BufID(0), uint64(1)
	var handles [inFlight]Handle
	packet := func() {
		next++
		k := next % inFlight
		h := insert(c, next, 2048)
		if next > inFlight {
			c.ConsumeIn(0, handles[k], next-inFlight)
		}
		handles[k] = h
		for t := 0; t < 8; t++ {
			x = x*6364136223846793005 + 1442695040888963407
			line := int(x >> 33 % stateLines)
			c.TouchState(0, StateLineID(line%4, line/4), 64)
		}
	}
	for i := 0; i < 200_000; i++ {
		packet()
	}
	if c.Len() < 60_000 {
		t.Fatalf("warm resident set %d lines, want at least 60k", c.Len())
	}
	evictions := c.Evictions
	if allocs := testing.AllocsPerRun(5000, packet); allocs != 0 {
		t.Fatalf("steady-state churn allocates %v times per packet, want 0", allocs)
	}
	if c.Evictions == evictions {
		t.Fatal("measured churn evicted nothing; the region is not under pressure")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The core DDIO phenomenon: in-flight volume beyond the DDIO region
// produces a miss rate that grows with the overshoot.
func TestLLCPressureDrivesMissRate(t *testing.T) {
	type buf struct {
		id BufID
		h  Handle
	}
	run := func(inFlight int) float64 {
		c := NewLLC(64 * 1024) // 32 buffers of 2KB
		next := BufID(1)
		outstanding := []buf{}
		// Pipeline: insert inFlight buffers, then consume in FIFO order
		// while inserting one new buffer per consume.
		for i := 0; i < inFlight; i++ {
			outstanding = append(outstanding, buf{next, insert(c, next, 2048)})
			next++
		}
		for i := 0; i < 10000; i++ {
			c.ConsumeIn(0, outstanding[0].h, outstanding[0].id)
			outstanding = outstanding[1:]
			outstanding = append(outstanding, buf{next, insert(c, next, 2048)})
			next++
		}
		return c.MissRate()
	}
	low := run(16)  // fits in 32-buffer region
	high := run(64) // 2x overshoot
	if low != 0 {
		t.Fatalf("no-pressure miss rate = %v, want 0", low)
	}
	if high < 0.4 {
		t.Fatalf("pressure miss rate = %v, want substantial", high)
	}
}

func TestMemoryAccessLatency(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMemory(e, 100e9, 90) // 100 GB/s, 90ns
	lat := m.AccessLatency(2048)
	// 2048B at 100GB/s ~ 20ns serialisation + 90ns base.
	if lat < 100 || lat > 130 {
		t.Fatalf("latency = %v", lat)
	}
	if m.MissFetches != 1 {
		t.Fatal("fetch not counted")
	}
	// Queueing grows when the controller is saturated.
	for i := 0; i < 100; i++ {
		m.Writeback(64 * 1024)
	}
	lat2 := m.AccessLatency(2048)
	if lat2 <= lat {
		t.Fatalf("expected queueing to inflate latency: %v <= %v", lat2, lat)
	}
}

func TestMemoryBulkMove(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMemory(e, 1e9, 100) // 1 B/ns
	var doneAt sim.Time
	m.BulkMoveArg(1000, func(any) { doneAt = e.Now() }, nil)
	e.Run()
	if doneAt != 1000 {
		t.Fatalf("bulk move completed at %v, want 1000", doneAt)
	}
	if m.BulkMoves != 1 {
		t.Fatal("bulk move not counted")
	}
}

func TestIIO(t *testing.T) {
	b := NewIIO(1000)
	if !b.TryEnqueue(600) || !b.TryEnqueue(400) {
		t.Fatal("should fit")
	}
	if b.TryEnqueue(1) {
		t.Fatal("should be full")
	}
	if b.Dropped != 1 || b.PeakBytes != 1000 || b.Fill() != 1.0 {
		t.Fatalf("dropped=%d peak=%d fill=%v", b.Dropped, b.PeakBytes, b.Fill())
	}
	b.Drain(600)
	if b.Occupancy() != 400 {
		t.Fatalf("occupancy = %d", b.Occupancy())
	}
	b.Drain(1000) // clamps at zero
	if b.Occupancy() != 0 {
		t.Fatal("occupancy should clamp to 0")
	}
}
