package pcie

import (
	"runtime"
	"testing"

	"ceio/internal/cache"
	"ceio/internal/sim"
)

func testLinks(eng *sim.Engine) (*Link, *Link) {
	cfg := LinkConfig{Bandwidth: 1e9, PropagationDelay: 100, MaxPayload: 256, TLPHeader: 24}
	return NewLink(eng, cfg), NewLink(eng, cfg)
}

func TestWireBytes(t *testing.T) {
	eng := sim.NewEngine(1)
	l, _ := testLinks(eng)
	cases := []struct{ size, want int }{
		{0, 24},
		{1, 1 + 24},
		{256, 256 + 24},
		{257, 257 + 48},
		{1024, 1024 + 4*24},
	}
	for _, c := range cases {
		if got := l.WireBytes(c.size); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestLinkTransferTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	l, _ := testLinks(eng)
	var at sim.Time
	l.TransferArg(256, func(any) { at = eng.Now() }, nil)
	eng.Run()
	// 280 wire bytes at 1 B/ns + 100ns propagation.
	if at != 380 {
		t.Fatalf("arrival at %v, want 380", at)
	}
}

func TestDMAWriteDeliversThroughIIO(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(4096)
	d := NewEngine(eng, toHost, toNIC, iio, 4)
	delivered := 0
	d.WriteTo(1024, func(_ any, w *Write) {
		delivered++
		if iio.Occupancy() != 1024 {
			t.Fatalf("IIO occupancy = %d during delivery", iio.Occupancy())
		}
		eng.After(50, w.Done)
	}, nil)
	eng.Run()
	if delivered != 1 {
		t.Fatal("write not delivered")
	}
	if iio.Occupancy() != 0 {
		t.Fatal("IIO not drained")
	}
	if d.OutstandingWrites() != 0 {
		t.Fatal("credit not released")
	}
}

func TestDMACreditExhaustionQueues(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(1 << 20)
	d := NewEngine(eng, toHost, toNIC, iio, 2)
	var order []int
	var slowDone []*Write
	for i := 0; i < 4; i++ {
		d.WriteTo(100, func(arg any, w *Write) {
			order = append(order, arg.(int))
			slowDone = append(slowDone, w) // hold credits until released manually
		}, i)
	}
	eng.Run()
	if len(order) != 2 {
		t.Fatalf("expected only 2 in flight, delivered %v", order)
	}
	if d.CreditStalls != 2 {
		t.Fatalf("credit stalls = %d, want 2", d.CreditStalls)
	}
	// Release one: the third write should proceed.
	slowDone[0].Done()
	eng.Run()
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("after release, order = %v", order)
	}
	slowDone[1].Done()
	slowDone[2].Done()
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("final order = %v", order)
	}
}

func TestDMAIIOBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(1024) // fits a single write
	d := NewEngine(eng, toHost, toNIC, iio, 8)
	var held []*Write
	delivered := 0
	for i := 0; i < 3; i++ {
		d.WriteTo(1024, func(_ any, w *Write) {
			delivered++
			held = append(held, w)
		}, nil)
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (IIO holds one write)", delivered)
	}
	if d.IIOBackpressure == 0 {
		t.Fatal("expected IIO backpressure")
	}
	held[0].Done()
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d after drain, want 2", delivered)
	}
	held[1].Done()
	held[2].Done()
	eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	if iio.Occupancy() != 0 {
		t.Fatal("IIO should be empty")
	}
}

func TestDMARead(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(1 << 20)
	d := NewEngine(eng, toHost, toNIC, iio, 4)
	var at sim.Time
	d.ReadTo(1024, 450, func(any) { at = eng.Now() }, nil)
	eng.Run()
	// Request: 32+24=56 wire bytes + 100ns prop = 156. Device: +450 = 606.
	// Response: 1024+96=1120 bytes + 100 prop = 1826 total.
	if at != 1826 {
		t.Fatalf("read completed at %v, want 1826", at)
	}
	if d.Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestDMAWritesPreserveOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(1 << 20)
	d := NewEngine(eng, toHost, toNIC, iio, 2)
	var order []int
	for i := 0; i < 20; i++ {
		d.WriteTo(64, func(arg any, w *Write) {
			order = append(order, arg.(int))
			eng.After(10, w.Done)
		}, i)
	}
	eng.Run()
	if len(order) != 20 {
		t.Fatalf("delivered %d, want 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order violated: %v", order)
		}
	}
}

// Reads beyond the tag pool queue and start in FIFO order, while each
// completion issues another read, so the queue never drains. The bound
// on the queue's storage under such a backlog is sim.Queue's own test.
func TestDMAReadsQueueFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	toHost, toNIC := testLinks(eng)
	iio := cache.NewIIO(1 << 20)
	d := NewEngine(eng, toHost, toNIC, iio, 4) // 4 read tags
	const total, burst = 200, 10
	var order []int
	issued := 0
	var issue func()
	issue = func() {
		issued++
		d.ReadTo(256, 100, func(arg any) {
			order = append(order, arg.(int))
			if issued < total {
				issue()
			}
		}, issued-1)
	}
	for issued < burst {
		issue()
	}
	eng.Run()
	if len(order) != total {
		t.Fatalf("completed %d reads, want %d", len(order), total)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("read %d completed at position %d: %v", v, i, order)
		}
	}
	if d.ReadStalls == 0 {
		t.Fatal("no read queued behind the tag pool")
	}
}

// A standing write backlog, parked behind the credit pool or behind a
// full IIO, must reuse its queue's storage: every absorbed write issues
// another, so the queue never drains, and once warm 100 000 writes
// through it allocate nothing. testing.AllocsPerRun would truncate the
// old one-realloc-per-backlog-length cost to 0, so this counts mallocs.
func TestDMAWriteBacklogAllocationFree(t *testing.T) {
	const backlog = 64
	for _, tc := range []struct {
		name    string
		iio     int64
		credits int
		queue   func(*Engine) int
	}{
		{"credits", 1 << 30, 4, func(d *Engine) int { return d.pendingW.Len() }},
		{"iio", 4 * 64, 4 + backlog, func(d *Engine) int { return d.iioWaiting.Len() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			toHost, toNIC := testLinks(eng)
			d := NewEngine(eng, toHost, toNIC, cache.NewIIO(tc.iio), tc.credits)
			absorbed := 0
			var deliver func(any, *Write)
			absorb := func(arg any) {
				arg.(*Write).Done()
				absorbed++
				d.WriteTo(64, deliver, nil)
			}
			deliver = func(_ any, w *Write) { eng.AfterArg(1000, absorb, w) }
			for i := 0; i < 4+backlog; i++ {
				d.WriteTo(64, deliver, nil)
			}
			run := func(n int) {
				for end := absorbed + n; absorbed < end; {
					eng.Step()
				}
			}
			run(10_000)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(100_000)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("100000 writes behind a %d-deep backlog made %d heap allocations, want 0", backlog, n)
			}
			if q := tc.queue(d); q < backlog-4 {
				t.Errorf("backlog is %d writes deep, want about %d", q, backlog)
			}
		})
	}
}
