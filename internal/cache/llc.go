// Package cache models the host memory hierarchy that CEIO manages:
// the DDIO-accessible region of the Last-Level Cache, the DRAM behind it,
// the memory controller's shared bandwidth, and the IIO (Integrated I/O)
// staging buffer whose occupancy HostCC uses as a congestion signal.
//
// The model captures the mechanism the paper attributes LLC misses to:
// DDIO writes land in a bounded region of the LLC; when in-flight I/O data
// exceeds that region, the least-recently written unconsumed buffers are
// evicted to DRAM, and the CPU later pays a DRAM access (latency plus
// memory bandwidth) to read them (§2.2 of the paper).
package cache

import "fmt"

// BufID identifies one I/O buffer in flight through the hierarchy. 0 is
// no buffer: a freed arena node stores it.
type BufID uint64

// Handle names the arena node InsertIOSized gave a packet buffer; the
// packet carries it (pkt.Packet.LLC) to every later access, so no ID
// index is needed. Nodes are reused once their buffer leaves the cache,
// so each access also checks the node's BufID against the buffer's: IDs
// are never reused, so a mismatch means the buffer was evicted or
// retired, and the access reads as a miss or a no-op. 0 is no node.
type Handle int32

// A dataplane state line (see internal/dataplane) shares the BufID space
// with packet buffers, which count up from 1 per machine. Its ID is
// stateTag | module<<stateLineBits | line, so the ID itself says where
// the line's entry sits in its module's direct table.
const (
	stateTag      BufID = 1 << 63
	stateLineBits       = 24 // lines per module: 1 GiB of 64 B state
	stateModBits        = 8  // modules per machine
	stateLineMask       = 1<<stateLineBits - 1
)

// StateLineID builds the BufID for one line of one module's state. It
// panics when module or line does not fit its bit field: such an ID
// would alias another line, and a direct table sized by it would grow
// without bound.
func StateLineID(module, line int) BufID {
	if uint(module) >= 1<<stateModBits || uint(line) >= 1<<stateLineBits {
		panic(badStateLine{module, line})
	}
	return stateTag | BufID(module)<<stateLineBits | BufID(line)
}

// badStateLine is StateLineID's panic value; a value rather than a
// formatted string keeps StateLineID small enough to inline.
type badStateLine struct{ module, line int }

func (e badStateLine) Error() string {
	return fmt.Sprintf("cache: state line %d of module %d outside the %d-bit line or %d-bit module field",
		e.line, e.module, stateLineBits, stateModBits)
}

// IsStateLine reports whether id is a dataplane state line: an ID
// StateLineID builds, rather than a packet I/O buffer. A tagged ID with
// bits outside the module and line fields is not one.
func IsStateLine(id BufID) bool {
	return id>>(stateLineBits+stateModBits) == stateTag>>(stateLineBits+stateModBits)
}

// StateModule returns the module index of the state line id.
func StateModule(id BufID) int { return int(id>>stateLineBits) & (1<<stateModBits - 1) }

// node is one resident buffer in the LLC's node arena. prev and next
// are arena indices linking the node into its partition's LRU list, and
// next also threads the free list; index 0 is nil (slot 0 of the arena
// is never used). The arena holds no pointers, so the garbage collector
// never scans it.
type node struct {
	id         BufID
	size       int64
	payload    int64
	part       int32
	prev, next int32
}

// Evicted describes one buffer pushed out of the LLC: its ID plus the
// payload bytes recorded at insert, so the caller can charge the DRAM
// writeback without keeping a side table of buffer sizes (the old
// bufBytes map on the emit path).
type Evicted struct {
	ID BufID
	// Payload is the dirty bytes to write back (the packet payload for
	// I/O buffers; cache-line sized for dataplane state lines).
	Payload int64
	// Part is the partition the buffer was cached in (for a buffer that
	// bypassed the cache, the partition it was written to).
	Part int32
}

// PartStats counts one partition's cache events.
type PartStats struct {
	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Misses     uint64
}

// QueueStats counts the consume-side cache events attributed to one rx
// queue's core on a multi-queue machine. Unlike PartStats (where the DMA
// writes land), queue attribution records which core paid for each read,
// so per-core hit rates expose cross-core LLC contention.
type QueueStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses) for this queue.
func (s QueueStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// partition is one way-granular slice of the DDIO region: an independent
// LRU list with its own byte capacity. The unpartitioned cache is exactly
// one partition spanning the whole region.
type partition struct {
	capacity  int64
	occupancy int64
	head      int32 // most recently inserted/touched (arena index, 0 = empty)
	tail      int32 // least recently used: next eviction victim
	stats     PartStats
}

// LLC models the DDIO-accessible region of the last-level cache as an
// LRU-ordered set of resident I/O buffers with a byte-capacity bound.
// The region can be carved into way-granular partitions (CAT-style cache
// allocation for multi-tenant isolation); each partition runs its own LRU
// replacement, and the per-partition occupancies always sum to the
// region's total occupancy.
type LLC struct {
	capacity  int64
	occupancy int64

	// nodes is the node arena; nodes[0] is the unused nil slot. free
	// heads the list of recycled slots (chained through node.next), so
	// the steady-state insert/evict/consume churn of the DMA path does
	// not allocate: the arena only grows to the resident set's
	// high-water mark.
	nodes []node
	free  int32

	// A packet buffer is found through the Handle its packet carries.
	// states maps a resident state line to its arena slot without a
	// probe: states[module][line] is the line's arena index, 0 when it is
	// not resident. Each table grows on demand to cover the highest line
	// filled, so only a machine with a pipeline has any.
	states [][]int32

	// count is the number of resident buffers and state lines.
	count int

	parts []partition

	// queueStats, when enabled, attributes consume-side hits/misses to rx
	// queues (one slot per simulated core); nil on single-core machines.
	queueStats []QueueStats

	// onEvict, if set, is invoked for each buffer evicted to DRAM.
	onEvict func(BufID)

	// evictScratch backs the eviction list InsertIOIn returns; the slice
	// is reused on the next insert, which is safe because every caller
	// consumes it before touching the cache again.
	evictScratch []Evicted

	// Statistics (sums over all partitions).
	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Misses     uint64
}

// NewLLC creates an LLC model with the given DDIO-region capacity in
// bytes, initially one partition spanning the whole region.
func NewLLC(capacityBytes int64) *LLC {
	if capacityBytes <= 0 {
		panic("cache: LLC capacity must be positive")
	}
	// The arena grows on demand rather than being presized to the
	// region's line count: a rack of hosts whose caches stay sparsely
	// filled would otherwise pay megabytes each.
	return &LLC{
		capacity: capacityBytes,
		nodes:    make([]node, 1),
		parts:    []partition{{capacity: capacityBytes}},
	}
}

// resolve returns the arena index of the packet buffer id, inserted under
// handle h, or 0 when it is no longer resident: the node has been freed
// (its ID is 0) or reused for a later buffer. One load and a compare.
func (c *LLC) resolve(h Handle, id BufID) int32 {
	if c.nodes[h].id != id {
		return 0
	}
	return int32(h)
}

// findState returns the state line id's arena index, 0 when it is not
// resident: one load from its module's table.
func (c *LLC) findState(id BufID) int32 {
	m, line := StateModule(id), int(id&stateLineMask)
	if m < len(c.states) && line < len(c.states[m]) {
		return c.states[m][line]
	}
	return 0
}

// insertNode allocates an arena node for the non-resident buffer id,
// links it at the MRU end of partition part and charges its size.
func (c *LLC) insertNode(id BufID, size, payload int64, part int) int32 {
	n := c.free
	if n == 0 {
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	} else {
		c.free = c.nodes[n].next
	}
	c.nodes[n] = node{id: id, size: size, payload: payload, part: int32(part)}
	c.count++
	p := &c.parts[part]
	c.pushFront(p, n)
	p.occupancy += size
	c.occupancy += size
	return n
}

// setState records n as the state line id's arena index, extending its
// module's table to cover the line. The table grows by append, like the
// arena, so most extensions reuse spare capacity and allocate nothing.
func (c *LLC) setState(id BufID, n int32) {
	m, line := StateModule(id), int(id&stateLineMask)
	if m >= len(c.states) {
		c.states = append(c.states, make([][]int32, m+1-len(c.states))...)
	}
	t := c.states[m]
	if line >= len(t) {
		t = append(t, make([]int32, line+1-len(t))...)
		c.states[m] = t
	}
	t[line] = n
}

// removeNode unlinks the resident node n from its partition, uncharges
// its size, clears a state line's table entry and returns the slot to the
// free list. The freed node's ID is 0, so a stale handle resolves to
// nothing.
func (c *LLC) removeNode(n int32) {
	nd := &c.nodes[n]
	p := &c.parts[nd.part]
	c.unlink(p, n)
	p.occupancy -= nd.size
	c.occupancy -= nd.size
	if id := nd.id; IsStateLine(id) {
		c.states[StateModule(id)][id&stateLineMask] = 0
	}
	c.count--
	c.nodes[n] = node{next: c.free}
	c.free = n
}

// SetEvictHandler registers a callback invoked for every eviction.
func (c *LLC) SetEvictHandler(fn func(BufID)) { c.onEvict = fn }

// Capacity returns the DDIO-region size in bytes.
func (c *LLC) Capacity() int64 { return c.capacity }

// Occupancy returns the bytes currently resident across all partitions.
func (c *LLC) Occupancy() int64 { return c.occupancy }

// Resident reports whether buffer id is currently cached: a packet
// buffer through the handle its insert returned, a state line by its ID
// alone (h is ignored).
func (c *LLC) Resident(h Handle, id BufID) bool {
	if IsStateLine(id) {
		return c.findState(id) != 0
	}
	return c.resolve(h, id) != 0
}

// Len returns the number of resident buffers.
func (c *LLC) Len() int { return c.count }

// Partitions returns the number of partitions (1 when unpartitioned).
func (c *LLC) Partitions() int { return len(c.parts) }

// PartCapacity returns partition i's byte capacity.
func (c *LLC) PartCapacity(i int) int64 { return c.parts[i].capacity }

// PartOccupancy returns partition i's resident bytes.
func (c *LLC) PartOccupancy(i int) int64 { return c.parts[i].occupancy }

// PartStats returns a copy of partition i's event counters.
func (c *LLC) PartStats(i int) PartStats { return c.parts[i].stats }

// Partition carves the region into len(capacities) partitions with the
// given byte capacities. It is a setup-time operation: the cache must be
// empty, and the capacities must be non-negative and sum to the region's
// total capacity (so partition occupancies always sum to the machine
// total).
func (c *LLC) Partition(capacities []int64) error {
	if c.count != 0 {
		return fmt.Errorf("cache: partitioning a non-empty LLC (%d resident buffers)", c.count)
	}
	if len(capacities) == 0 {
		return fmt.Errorf("cache: partitioning into zero partitions")
	}
	var sum int64
	for i, cap := range capacities {
		if cap < 0 {
			return fmt.Errorf("cache: partition %d has negative capacity %d", i, cap)
		}
		sum += cap
	}
	if sum != c.capacity {
		return fmt.Errorf("cache: partition capacities sum to %d, want LLC capacity %d", sum, c.capacity)
	}
	c.parts = make([]partition, len(capacities))
	for i, cap := range capacities {
		c.parts[i].capacity = cap
	}
	return nil
}

// MoveCapacity atomically transfers bytes of capacity from one partition
// to another (a waymask update in the CAT substitution). Lines the
// shrinking partition can no longer hold are evicted LRU-first — losing a
// way flushes its resident lines — and returned; the eviction handler
// also fires for each. Total capacity is conserved.
func (c *LLC) MoveCapacity(from, to int, bytes int64) (evicted []Evicted) {
	if from == to {
		panic(fmt.Sprintf("cache: MoveCapacity from partition %d to itself", from))
	}
	if bytes <= 0 {
		return nil
	}
	src, dst := &c.parts[from], &c.parts[to]
	if bytes > src.capacity {
		panic(fmt.Sprintf("cache: MoveCapacity %d bytes from partition %d holding %d", bytes, from, src.capacity))
	}
	src.capacity -= bytes
	dst.capacity += bytes
	return c.evictOver(src, 0, nil)
}

// evictOver evicts p's LRU lines until p fits its capacity, appending
// each to evicted. keep is the line just inserted or refreshed at the MRU
// head (0 for none), so reaching it means it is the only line left: it
// stays resident even over capacity.
func (c *LLC) evictOver(p *partition, keep int32, evicted []Evicted) []Evicted {
	for p.occupancy > p.capacity && p.tail != 0 && p.tail != keep {
		victim := p.tail
		v := c.nodes[victim]
		c.removeNode(victim)
		p.stats.Evictions++
		c.Evictions++
		evicted = append(evicted, Evicted{ID: v.id, Payload: v.payload, Part: v.part})
		if c.onEvict != nil {
			c.onEvict(v.id)
		}
	}
	return evicted
}

// pushFront links node n at the MRU end of p's list.
func (c *LLC) pushFront(p *partition, n int32) {
	nd := &c.nodes[n]
	nd.prev = 0
	nd.next = p.head
	if p.head != 0 {
		c.nodes[p.head].prev = n
	} else {
		p.tail = n
	}
	p.head = n
}

// unlink removes node n from p's list.
func (c *LLC) unlink(p *partition, n int32) {
	nd := &c.nodes[n]
	if nd.prev != 0 {
		c.nodes[nd.prev].next = nd.next
	} else {
		p.head = nd.next
	}
	if nd.next != 0 {
		c.nodes[nd.next].prev = nd.prev
	} else {
		p.tail = nd.prev
	}
	nd.prev, nd.next = 0, 0
}

// moveToFront refreshes the resident node n to MRU in its home partition.
func (c *LLC) moveToFront(n int32) {
	p := &c.parts[c.nodes[n].part]
	if p.head != n {
		c.unlink(p, n)
		c.pushFront(p, n)
	}
}

// InsertIOSized models a DDIO write of the packet buffer id into
// partition part and returns the buffer's handle. id must be a fresh
// packet buffer: not a state line, not 0, and not resident (BufIDs are
// never reused). size is the cache footprint the buffer occupies (the
// pooled buffer granularity); payload is the dirty bytes a later eviction
// must write back (the packet payload), carried inside the LRU node so no
// side table is needed. If the partition is full, its least-recently-used
// buffers are evicted to DRAM until the new buffer fits ("subsequent
// packets overwrite earlier ones", §2.2). The evicted buffers are
// returned with their payloads (the eviction handler also fires).
//
// The returned slice is valid only until the next insert: it is backed by
// a scratch buffer reused across calls, so callers must consume it before
// re-entering the cache (every datapath caller does so synchronously).
func (c *LLC) InsertIOSized(part int, id BufID, size, payload int64) (h Handle, evicted []Evicted) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: insert of non-positive size %d", size))
	}
	p := &c.parts[part]
	evicted = c.evictScratch[:0]
	if size > p.capacity {
		// A buffer that can never fit bypasses the cache entirely (this
		// also covers a partition shrunk to zero ways) and gets no
		// handle. The miss is NOT counted here: the consumer's later
		// ConsumeIn/ProbeIn charges it exactly once, at read time.
		if c.onEvict != nil {
			c.onEvict(id)
		}
		evicted = append(evicted, Evicted{ID: id, Payload: payload, Part: int32(part)})
		c.evictScratch = evicted
		return 0, evicted
	}
	n := c.insertNode(id, size, payload, part)
	p.stats.Insertions++
	c.Insertions++
	evicted = c.evictOver(p, n, evicted)
	c.evictScratch = evicted
	return Handle(n), evicted
}

// ImminentIn counts resident packet buffers in partition part whose
// eviction distance is within thresholdBytes; state lines sharing the
// partition add distance but are not counted. A buffer's
// eviction distance is the bytes of DDIO inserts into the partition that
// would push it out: the partition's free capacity (inserts that fit
// evict nothing) plus the resident size of every line closer to the LRU
// tail. The walk starts at the tail (the next victim) and is bounded by
// thresholdBytes of accumulated distance, not the partition population,
// so a small threshold keeps the probe O(threshold/bufsize) — and a
// partition with more than thresholdBytes free reports 0 without
// touching the list at all. RDCA's window controller (internal/rdca)
// polls this as its eviction-imminence signal — shrink the in-flight
// window before the oldest rx buffers age out.
func (c *LLC) ImminentIn(part int, thresholdBytes int64) int {
	if thresholdBytes <= 0 {
		return 0
	}
	p := &c.parts[part]
	dist := p.capacity - p.occupancy
	count := 0
	for n := p.tail; n != 0 && dist < thresholdBytes; n = c.nodes[n].prev {
		if !IsStateLine(c.nodes[n].id) {
			count++
		}
		dist += c.nodes[n].size
	}
	return count
}

// TouchState models a CPU access to one cache line of dataplane module
// state (NAT tables, firewall connection entries, UPF sessions; see
// internal/dataplane) living in the same LLC region the DDIO writes
// land in. A resident line refreshes to MRU and reports a hit. A miss
// fills the line into partition part — evicting LRU victims exactly
// like a DDIO insert, which is how a heavy pipeline's working set
// pushes I/O buffers out and inflates the I/O miss rate — and reports
// filled plus the victims. A line wider than the partition (a zero-way
// carve) bypasses the cache: miss, not filled, nothing inserted. So
// after the call the line is resident exactly when hit or filled, and a
// caller tracking residency needs no second lookup. id must be a
// StateLineID. Unlike InsertIOSized/ConsumeIn, TouchState does NOT bump the LLC's
// Insertions/Hits/Misses counters: those count the I/O path (DDIO
// writes and packet reads), and the paper's miss-ratio series must keep
// meaning that. Callers (the dataplane engine) keep their own
// per-module hit/miss counters. Eviction counters and the eviction
// handler fire normally, since a line leaving the region is a real
// eviction whatever displaced it.
//
// The returned slice shares the insert scratch buffer: consume it
// before re-entering the cache.
func (c *LLC) TouchState(part int, id BufID, size int64) (hit, filled bool, evicted []Evicted) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: state touch of non-positive size %d", size))
	}
	n := c.findState(id)
	if n != 0 {
		c.moveToFront(n)
		return true, false, nil
	}
	p := &c.parts[part]
	if size > p.capacity {
		return false, false, nil
	}
	n = c.insertNode(id, size, size, part)
	c.setState(id, n)
	evicted = c.evictOver(p, n, c.evictScratch[:0])
	c.evictScratch = evicted
	return false, true, evicted
}

// ConsumeIn models the CPU (or memory controller) reading and retiring
// the packet buffer id through its handle h. It returns true on an LLC
// hit: the buffer was still resident and is freed. It returns false on a
// miss: the buffer was evicted to DRAM before the consumer reached it, so
// the caller must charge a DRAM access. A hit is charged to the buffer's
// home partition; a miss to part, the reader's own partition.
func (c *LLC) ConsumeIn(part int, h Handle, id BufID) bool {
	n := c.resolve(h, id)
	if n == 0 {
		c.parts[part].stats.Misses++
		c.Misses++
		return false
	}
	p := &c.parts[c.nodes[n].part]
	c.removeNode(n)
	p.stats.Hits++
	c.Hits++
	return true
}

// ProbeIn classifies a read of the packet buffer id, through its handle
// h, as hit or miss without retiring the buffer or refreshing its
// recency. It models the use-once streaming read of a CPU-bypass
// consumer over a write-back cache: the line stays resident (dirty)
// until capacity pressure evicts it, which is how bypass traffic
// "continuously flushes the LLC" in the paper's coexistence analysis.
func (c *LLC) ProbeIn(part int, h Handle, id BufID) bool {
	if n := c.resolve(h, id); n != 0 {
		c.parts[c.nodes[n].part].stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Drop removes the packet buffer id, through its handle h, without
// classifying it as hit or miss (a packet dropped before any consumer
// touched it, or a delivered line demoted) and reports whether it was
// still resident.
func (c *LLC) Drop(h Handle, id BufID) bool {
	n := c.resolve(h, id)
	if n != 0 {
		c.removeNode(n)
	}
	return n != 0
}

// EnableQueueStats arms per-queue consume attribution for n rx queues.
func (c *LLC) EnableQueueStats(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("cache: EnableQueueStats needs a positive queue count, got %d", n))
	}
	c.queueStats = make([]QueueStats, n)
}

// AccountQueue attributes one consume-side hit or miss to rx queue q. A
// no-op when queue stats are disabled or q is out of range (legacy flows
// carry queue -1).
func (c *LLC) AccountQueue(q int, hit bool) {
	if c.queueStats == nil || q < 0 || q >= len(c.queueStats) {
		return
	}
	if hit {
		c.queueStats[q].Hits++
	} else {
		c.queueStats[q].Misses++
	}
}

// QueueStats returns a copy of rx queue q's consume-side counters (the
// zero value when queue stats are disabled or q is out of range).
func (c *LLC) QueueStats(q int) QueueStats {
	if c.queueStats == nil || q < 0 || q >= len(c.queueStats) {
		return QueueStats{}
	}
	return c.queueStats[q]
}

// MissRate returns misses/(hits+misses) over all partitions.
func (c *LLC) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// ResetStats zeroes the counters, global and per-partition (the resident
// set is untouched), so experiments can measure steady-state windows
// after warm-up.
func (c *LLC) ResetStats() {
	c.Insertions, c.Evictions, c.Hits, c.Misses = 0, 0, 0, 0
	for i := range c.parts {
		c.parts[i].stats = PartStats{}
	}
	for i := range c.queueStats {
		c.queueStats[i] = QueueStats{}
	}
}

// checkInvariants validates internal consistency; used by tests.
func (c *LLC) checkInvariants() error {
	var occSum, capSum int64
	var st PartStats
	count := 0
	seen := make([]bool, len(c.nodes))
	for pi := range c.parts {
		p := &c.parts[pi]
		var sum int64
		pcount := 0
		var prev int32
		for n := p.head; n != 0; n = c.nodes[n].next {
			if n < 0 || int(n) >= len(c.nodes) || seen[n] {
				return fmt.Errorf("cycle, duplicate or bad arena index %d in partition %d", n, pi)
			}
			seen[n] = true
			nd := &c.nodes[n]
			if nd.prev != prev {
				return fmt.Errorf("buffer %d prev link %d, want %d", nd.id, nd.prev, prev)
			}
			if int(nd.part) != pi {
				return fmt.Errorf("buffer %d in partition %d's list but tagged %d", nd.id, pi, nd.part)
			}
			if !c.Resident(Handle(n), nd.id) {
				return fmt.Errorf("buffer %#x at arena slot %d is not found through its handle or table", uint64(nd.id), n)
			}
			sum += nd.size
			pcount++
			if nd.next == 0 && p.tail != n {
				return fmt.Errorf("partition %d tail mismatch", pi)
			}
			prev = n
		}
		if p.head == 0 && p.tail != 0 {
			return fmt.Errorf("partition %d empty but has tail %d", pi, p.tail)
		}
		if sum != p.occupancy {
			return fmt.Errorf("partition %d occupancy %d != sum %d", pi, p.occupancy, sum)
		}
		if p.occupancy > p.capacity && pcount > 1 {
			return fmt.Errorf("partition %d over capacity: %d > %d", pi, p.occupancy, p.capacity)
		}
		occSum += p.occupancy
		capSum += p.capacity
		st.Insertions += p.stats.Insertions
		st.Evictions += p.stats.Evictions
		st.Hits += p.stats.Hits
		st.Misses += p.stats.Misses
		count += pcount
	}
	if occSum != c.occupancy {
		return fmt.Errorf("occupancy %d != partition sum %d", c.occupancy, occSum)
	}
	if capSum != c.capacity {
		return fmt.Errorf("capacity %d != partition sum %d", c.capacity, capSum)
	}
	tabled := 0
	for m, t := range c.states {
		for line, n := range t {
			if n == 0 {
				continue
			}
			if n < 0 || int(n) >= len(c.nodes) || !seen[n] {
				return fmt.Errorf("state table %d line %d holds arena slot %d, which no partition lists", m, line, n)
			}
			if id := c.nodes[n].id; id != StateLineID(m, line) {
				return fmt.Errorf("state table %d line %d points at buffer %#x", m, line, uint64(id))
			}
			tabled++
		}
	}
	if count != c.count || tabled > count {
		return fmt.Errorf("lists hold %d buffers, state tables %d, count %d", count, tabled, c.count)
	}
	free := 0
	for n := c.free; n != 0; n = c.nodes[n].next {
		if seen[n] {
			return fmt.Errorf("arena slot %d both free and listed (or the free list cycles)", n)
		}
		seen[n] = true
		free++
	}
	if count+free != len(c.nodes)-1 {
		return fmt.Errorf("arena leaks slots: %d listed + %d free != %d", count, free, len(c.nodes)-1)
	}
	if st != (PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}) {
		return fmt.Errorf("global counters %+v diverge from partition sums %+v",
			PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}, st)
	}
	return nil
}
