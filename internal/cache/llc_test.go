package cache

import (
	"testing"
	"testing/quick"

	"ceio/internal/sim"
)

func TestLLCHitOnResident(t *testing.T) {
	c := NewLLC(1000)
	c.InsertIO(1, 500)
	if !c.Consume(1) {
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
	c.InsertIO(1, 600)
	c.InsertIO(2, 600) // evicts 1 (LRU)
	if c.Resident(1) {
		t.Fatal("buffer 1 should have been evicted")
	}
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	if c.Consume(1) {
		t.Fatal("expected miss on evicted buffer")
	}
	if !c.Consume(2) {
		t.Fatal("expected hit on resident buffer")
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

func TestLLCLRUOrder(t *testing.T) {
	c := NewLLC(300)
	c.InsertIO(1, 100)
	c.InsertIO(2, 100)
	c.InsertIO(3, 100)
	// Touch 1 so 2 becomes LRU.
	if !c.Peek(1) {
		t.Fatal("peek of resident should hit")
	}
	ev := c.InsertIO(4, 100)
	if len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	if ev[0].Payload != 100 {
		t.Fatalf("evicted payload %d, want the size recorded at insert", ev[0].Payload)
	}
}

func TestLLCReinsertRefreshes(t *testing.T) {
	c := NewLLC(300)
	c.InsertIO(1, 100)
	c.InsertIO(2, 100)
	c.InsertIO(1, 100) // refresh: 2 is now LRU
	ev := c.InsertIO(3, 200)
	if len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	if c.Insertions != 3 { // reinsert does not double count
		t.Fatalf("insertions = %d", c.Insertions)
	}
}

func TestLLCOversizeBypasses(t *testing.T) {
	c := NewLLC(100)
	ev := c.InsertIO(1, 200)
	if len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("oversize insert should bypass, got %v", ev)
	}
	if c.Resident(1) || c.Occupancy() != 0 {
		t.Fatal("oversize buffer must not be resident")
	}
}

// TestLLCOversizeMissCountedOnce pins the hit/miss accounting of the
// bypass path: a buffer larger than the DDIO region never becomes
// resident, and the miss is charged exactly once — when the consumer
// reads it — not a second time at insert. (Regression: InsertIO used to
// also increment Misses, double-counting every oversized buffer and
// inflating MissRate.)
func TestLLCOversizeMissCountedOnce(t *testing.T) {
	c := NewLLC(100)
	c.InsertIO(1, 200)
	if c.Misses != 0 {
		t.Fatalf("insert of oversized buffer charged %d misses, want 0 (miss belongs to the consumer)", c.Misses)
	}
	if c.Consume(1) {
		t.Fatal("consume of non-resident oversized buffer must miss")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("after insert+consume: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}
	if got := c.MissRate(); got != 1.0 {
		t.Fatalf("miss rate = %v, want 1.0", got)
	}

	// Streaming (Probe) consumer, as used by CPU-bypass flows.
	c.ResetStats()
	c.InsertIO(2, 150)
	if c.Probe(2) {
		t.Fatal("probe of non-resident oversized buffer must miss")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("bypass path: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}

	// A resident buffer still counts one hit, so the rate stays balanced.
	c.InsertIO(3, 50)
	if !c.Consume(3) {
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
	c.InsertIO(1, 50)
	c.Drop(1)
	if c.Resident(1) || c.Occupancy() != 0 {
		t.Fatal("drop should remove without stats")
	}
	if c.Hits != 0 && c.Misses != 0 {
		t.Fatal("drop must not count as hit or miss")
	}
	c.Drop(99) // dropping absent buffer is a no-op
}

func TestLLCPeekMiss(t *testing.T) {
	c := NewLLC(100)
	if c.Peek(7) {
		t.Fatal("peek of absent buffer should miss")
	}
	if c.Misses != 1 {
		t.Fatalf("misses = %d", c.Misses)
	}
}

func TestLLCResetStats(t *testing.T) {
	c := NewLLC(100)
	c.InsertIO(1, 50)
	c.Consume(1)
	c.ResetStats()
	if c.Hits != 0 || c.Insertions != 0 {
		t.Fatal("stats not reset")
	}
}

// Property: under any mixed insert/consume workload the occupancy bound
// and list/map consistency hold.
func TestLLCInvariantsProperty(t *testing.T) {
	type op struct {
		Insert bool
		ID     uint8
		Size   uint8
	}
	f := func(ops []op) bool {
		c := NewLLC(1024)
		for _, o := range ops {
			if o.Insert {
				c.InsertIO(BufID(o.ID), int64(o.Size)+1)
			} else {
				c.Consume(BufID(o.ID))
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
// arena, the index and four modules' state tables have grown to the
// resident set's high-water mark, DDIO insert/consume churn and
// state-line touches that hit, refill and evict allocate nothing.
func TestLLCSteadyStateZeroAlloc(t *testing.T) {
	const (
		stateLines = 64 << 10 // 4 MB of 64 B state lines
		inFlight   = 1024     // 2 MB of 2 KB I/O buffers
	)
	c := NewLLC(6 << 20)
	next, x := BufID(0), uint64(1)
	packet := func() {
		next++
		c.InsertIO(next, 2048)
		if next > inFlight {
			c.Consume(next - inFlight)
		}
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
	run := func(inFlight int) float64 {
		c := NewLLC(64 * 1024) // 32 buffers of 2KB
		next := BufID(1)
		outstanding := []BufID{}
		// Pipeline: insert inFlight buffers, then consume in FIFO order
		// while inserting one new buffer per consume.
		for i := 0; i < inFlight; i++ {
			c.InsertIO(next, 2048)
			outstanding = append(outstanding, next)
			next++
		}
		for i := 0; i < 10000; i++ {
			c.Consume(outstanding[0])
			outstanding = outstanding[1:]
			c.InsertIO(next, 2048)
			outstanding = append(outstanding, next)
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
	m.BulkMove(1000, func() { doneAt = e.Now() })
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
