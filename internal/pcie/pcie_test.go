package pcie

import (
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
	l.Transfer(256, func() { at = eng.Now() })
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
	d.Write(1024, func(done func()) {
		delivered++
		if iio.Occupancy() != 1024 {
			t.Fatalf("IIO occupancy = %d during delivery", iio.Occupancy())
		}
		eng.After(50, done)
	})
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
	slowDone := []func(){}
	for i := 0; i < 4; i++ {
		i := i
		d.Write(100, func(done func()) {
			order = append(order, i)
			slowDone = append(slowDone, done) // hold credits until released manually
		})
	}
	eng.Run()
	if len(order) != 2 {
		t.Fatalf("expected only 2 in flight, delivered %v", order)
	}
	if d.CreditStalls != 2 {
		t.Fatalf("credit stalls = %d, want 2", d.CreditStalls)
	}
	// Release one: the third write should proceed.
	slowDone[0]()
	eng.Run()
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("after release, order = %v", order)
	}
	slowDone[1]()
	slowDone[2]()
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
	var doneFns []func()
	delivered := 0
	for i := 0; i < 3; i++ {
		d.Write(1024, func(done func()) {
			delivered++
			doneFns = append(doneFns, done)
		})
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (IIO holds one write)", delivered)
	}
	if d.IIOBackpressure == 0 {
		t.Fatal("expected IIO backpressure")
	}
	doneFns[0]()
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d after drain, want 2", delivered)
	}
	doneFns[1]()
	doneFns[2]()
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
	d.Read(1024, 450, func() { at = eng.Now() })
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
		i := i
		d.Write(64, func(done func()) {
			order = append(order, i)
			eng.After(10, done)
		})
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

// Reads beyond the tag pool queue and start in FIFO order. Each
// completion issues another read, so the queue never drains: its storage
// must still stay bounded by the backlog rather than by the reads ever
// queued.
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
		i := issued
		issued++
		d.Read(256, 100, func() {
			order = append(order, i)
			if issued < total {
				issue()
			}
		})
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
	if c := cap(d.pendingR); c > 2*burst {
		t.Fatalf("pending-read storage grew to %d for a backlog of at most %d", c, burst)
	}
}
