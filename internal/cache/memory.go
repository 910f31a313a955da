package cache

import "ceio/internal/sim"

// Memory models the host DRAM subsystem behind the LLC: a shared
// memory-controller bandwidth server plus a fixed access latency. Both
// CPU-side miss fetches and DDIO eviction write-backs contend for the same
// bandwidth, which is how inefficient LLC use steals throughput from
// CPU-bypass flows in the paper's analysis (§2.2, "occupying the memory
// bandwidth that required by CPU-bypass flows").
type Memory struct {
	eng        *sim.Engine
	controller *sim.Server
	bandwidth  float64 // bytes/second
	latency    sim.Time

	// Statistics.
	MissFetches uint64
	Writebacks  uint64
	BulkMoves   uint64
}

// NewMemory constructs the DRAM model. bandwidth is the effective
// memory-controller bandwidth in bytes/second; latency is the idle-system
// access latency (row activation + transfer start), ~90ns on the paper's
// testbed class of machine.
func NewMemory(eng *sim.Engine, bandwidth float64, latency sim.Time) *Memory {
	return &Memory{
		eng:        eng,
		controller: NewController(eng, bandwidth),
		bandwidth:  bandwidth,
		latency:    latency,
	}
}

// NewController builds the raw bandwidth server (exported for tests).
func NewController(eng *sim.Engine, bandwidth float64) *sim.Server {
	return sim.NewServer(eng, bandwidth, 0)
}

// AccessLatency returns the time a CPU stalls to fetch size bytes that
// missed the LLC. The fetch is charged against memory bandwidth, and
// controller backlog inflates the latency — but demand reads are
// prioritised over the write-back/bulk queue in real memory controllers,
// so only a fraction of the backlog is felt, bounded above (a saturated
// DDR bus multiplies the idle access latency a few times over, not more).
func (m *Memory) AccessLatency(size int) sim.Time {
	m.MissFetches++
	queued := m.controller.QueueDelay() / 4
	if cap := 4 * m.latency; queued > cap {
		queued = cap
	}
	m.controller.Submit(size)
	ser := sim.Time(float64(size) / (m.bandwidth / 1e9))
	if ser < 1 {
		ser = 1
	}
	return m.latency + queued + ser
}

// Writeback charges the bandwidth cost of evicting a dirty I/O buffer from
// the LLC to DRAM. The CPU does not stall on it, so no latency is returned.
func (m *Memory) Writeback(size int) {
	m.Writebacks++
	m.controller.Submit(size)
}

// BulkMoveArg models a CPU-bypass (RDMA-style) transfer of size bytes
// through the memory controller (LLC -> DRAM for large-file flows).
// fn(arg) fires when the transfer completes; the return value is the
// completion time plus the access latency.
func (m *Memory) BulkMoveArg(size int, fn func(any), arg any) sim.Time {
	m.BulkMoves++
	t := m.controller.SubmitArg(size, fn, arg)
	return t + m.latency
}

// QueueDelay exposes current memory-controller queueing (used by cost
// models and for diagnostics).
func (m *Memory) QueueDelay() sim.Time { return m.controller.QueueDelay() }

// IIO models the Integrated I/O staging buffer between the PCIe root
// complex and the cache/memory subsystem. HostCC's congestion signal is
// this buffer's occupancy (§2.3). Writes enter on DMA arrival and drain
// when the cache/memory write completes.
type IIO struct {
	capacity  int64
	occupancy int64

	// Statistics.
	Enqueued  uint64
	Dropped   uint64
	PeakBytes int64
}

// NewIIO constructs an IIO buffer with the given byte capacity.
func NewIIO(capacity int64) *IIO {
	return &IIO{capacity: capacity}
}

// TryEnqueue admits size bytes, failing (backpressure to the PCIe DMA
// engine) when full.
func (b *IIO) TryEnqueue(size int64) bool {
	if b.occupancy+size > b.capacity {
		b.Dropped++
		return false
	}
	b.occupancy += size
	b.Enqueued++
	if b.occupancy > b.PeakBytes {
		b.PeakBytes = b.occupancy
	}
	return true
}

// Drain releases size bytes after the downstream write completes.
func (b *IIO) Drain(size int64) {
	b.occupancy -= size
	if b.occupancy < 0 {
		b.occupancy = 0
	}
}

// Occupancy returns the current fill level in bytes.
func (b *IIO) Occupancy() int64 { return b.occupancy }

// Capacity returns the configured capacity in bytes.
func (b *IIO) Capacity() int64 { return b.capacity }

// Fill returns occupancy as a fraction of capacity.
func (b *IIO) Fill() float64 { return float64(b.occupancy) / float64(b.capacity) }
