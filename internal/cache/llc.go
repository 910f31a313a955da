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

// BufID identifies one I/O buffer in flight through the hierarchy.
type BufID uint64

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

	// index maps a resident BufID to its arena slot: an open-addressed,
	// linear-probing table of arena indices (0 = empty slot) whose key
	// is compared in the node. Its length is a power of two, 1<<(64-shift),
	// and it doubles once half full; deletion shifts later entries of the
	// probe run back, so there are no tombstones. count is the number of
	// resident buffers.
	index []int32
	shift uint
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
	return &LLC{
		capacity: capacityBytes,
		nodes:    make([]node, 1),
		index:    make([]int32, 1<<minIndexBits),
		shift:    64 - minIndexBits,
		parts:    []partition{{capacity: capacityBytes}},
	}
}

// minIndexBits sizes a new LLC's index (1<<minIndexBits slots). Both the
// arena and the index grow on demand from there rather than being
// presized to the region's line count: a rack of hosts whose caches stay
// sparsely filled would otherwise pay megabytes each.
const minIndexBits = 4

// slot returns id's home slot in the index: Fibonacci (multiplicative)
// hashing, whose top bits spread both sequential packet buffer IDs and
// the tagged module|line IDs of dataplane state.
func (c *LLC) slot(id BufID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> c.shift)
}

// lookup returns the index slot holding id and its arena index, or the
// empty slot where id would be inserted and 0.
func (c *LLC) lookup(id BufID) (slot int, n int32) {
	mask := len(c.index) - 1
	for i := c.slot(id); ; i = (i + 1) & mask {
		n := c.index[i]
		if n == 0 || c.nodes[n].id == id {
			return i, n
		}
	}
}

// find returns id's arena index, 0 when id is not resident.
func (c *LLC) find(id BufID) int32 {
	_, n := c.lookup(id)
	return n
}

// insertNode allocates an arena node for the non-resident id and records
// it at the empty index slot lookup returned.
func (c *LLC) insertNode(slot int, id BufID, size, payload int64, part int) int32 {
	n := c.free
	if n == 0 {
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	} else {
		c.free = c.nodes[n].next
	}
	c.nodes[n] = node{id: id, size: size, payload: payload, part: int32(part)}
	c.index[slot] = n
	c.count++
	if 2*c.count >= len(c.index) {
		c.growIndex()
	}
	return n
}

// growIndex doubles the index and reinserts every resident node.
func (c *LLC) growIndex() {
	old := c.index
	c.index = make([]int32, 2*len(old))
	c.shift--
	mask := len(c.index) - 1
	for _, n := range old {
		if n == 0 {
			continue
		}
		i := c.slot(c.nodes[n].id)
		for c.index[i] != 0 {
			i = (i + 1) & mask
		}
		c.index[i] = n
	}
}

// removeNode deletes the resident node n from the index and returns its
// arena slot to the free list. The caller has already unlinked it.
func (c *LLC) removeNode(n int32) {
	i, _ := c.lookup(c.nodes[n].id)
	// Backward-shift deletion: walk the probe run after the hole and move
	// back every entry whose home slot the hole lies on the way to, so
	// lookups never need tombstones.
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		m := c.index[j]
		if (j-c.slot(c.nodes[m].id))&mask >= (j-i)&mask {
			c.index[i] = m
			i = j
		}
	}
	c.index[i] = 0
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

// Resident reports whether id is currently cached.
func (c *LLC) Resident(id BufID) bool { return c.find(id) != 0 }

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
		c.unlink(p, victim)
		c.removeNode(victim)
		p.occupancy -= v.size
		c.occupancy -= v.size
		p.stats.Evictions++
		c.Evictions++
		evicted = append(evicted, Evicted{ID: v.id, Payload: v.payload})
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

// moveToFront refreshes the resident node n to MRU in its home partition
// and returns that partition.
func (c *LLC) moveToFront(n int32) *partition {
	p := &c.parts[c.nodes[n].part]
	if p.head != n {
		c.unlink(p, n)
		c.pushFront(p, n)
	}
	return p
}

// InsertIO models a DDIO write into partition 0 (the whole region when
// unpartitioned); see InsertIOIn.
func (c *LLC) InsertIO(id BufID, size int64) (evicted []Evicted) {
	return c.InsertIOSized(0, id, size, size)
}

// InsertIOIn is InsertIOSized with the payload equal to the cache
// footprint (buffers whose dirty data fills their lines).
func (c *LLC) InsertIOIn(part int, id BufID, size int64) (evicted []Evicted) {
	return c.InsertIOSized(part, id, size, size)
}

// InsertIOSized models a DDIO write of one I/O buffer into partition
// part. size is the cache footprint the buffer occupies (the pooled
// buffer granularity); payload is the dirty bytes a later eviction must
// write back (the packet payload), carried inside the LRU node so no
// side table is needed. If the partition is full, its
// least-recently-used buffers are evicted to DRAM until the new buffer
// fits ("subsequent packets overwrite earlier ones", §2.2). The evicted
// buffers are returned with their payloads (the eviction handler also
// fires). Inserting an already-resident buffer refreshes it to MRU
// within its home partition.
//
// The returned slice is valid only until the next insert: it is backed by
// a scratch buffer reused across calls, so callers must consume it before
// re-entering the cache (every datapath caller does so synchronously).
func (c *LLC) InsertIOSized(part int, id BufID, size, payload int64) (evicted []Evicted) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: insert of non-positive size %d", size))
	}
	p := &c.parts[part]
	evicted = c.evictScratch[:0]
	if size > p.capacity {
		// A buffer that can never fit bypasses the cache entirely (this
		// also covers a partition shrunk to zero ways). The miss is NOT
		// counted here: the consumer's later Consume/Probe on the
		// non-resident ID charges it exactly once, at read time.
		if c.onEvict != nil {
			c.onEvict(id)
		}
		evicted = append(evicted, Evicted{ID: id, Payload: payload})
		c.evictScratch = evicted
		return evicted
	}
	slot, n := c.lookup(id)
	if n != 0 {
		// Refresh within the buffer's home partition (a buffer belongs to
		// one flow, and a flow's partition is fixed for its lifetime).
		p = c.moveToFront(n)
		nd := &c.nodes[n]
		p.occupancy += size - nd.size
		c.occupancy += size - nd.size
		nd.size = size
		nd.payload = payload
	} else {
		n = c.insertNode(slot, id, size, payload, part)
		c.pushFront(p, n)
		p.occupancy += size
		c.occupancy += size
		p.stats.Insertions++
		c.Insertions++
	}
	evicted = c.evictOver(p, n, evicted)
	c.evictScratch = evicted
	return evicted
}

// ImminentIn counts resident buffers in partition part whose eviction
// distance is within thresholdBytes and that satisfy pred. A buffer's
// eviction distance is the bytes of DDIO inserts into the partition that
// would push it out: the partition's free capacity (inserts that fit
// evict nothing) plus the resident size of every line closer to the LRU
// tail. The walk starts at the tail (the next victim) and is bounded by
// thresholdBytes of accumulated distance, not the partition population,
// so a small threshold keeps the probe O(threshold/bufsize) — and a
// partition with more than thresholdBytes free reports 0 without
// touching the list at all. RDCA's window controller (internal/rdca)
// polls this as its eviction-imminence signal — shrink the in-flight
// window before the oldest rx buffers age out — with pred selecting its
// own tagged rx BufIDs so dataplane state lines sharing the partition
// are not counted.
func (c *LLC) ImminentIn(part int, thresholdBytes int64, pred func(BufID) bool) int {
	if thresholdBytes <= 0 {
		return 0
	}
	p := &c.parts[part]
	dist := p.capacity - p.occupancy
	count := 0
	for n := p.tail; n != 0 && dist < thresholdBytes; n = c.nodes[n].prev {
		id, size := c.nodes[n].id, c.nodes[n].size
		if pred == nil || pred(id) {
			count++
		}
		dist += size
	}
	return count
}

// PayloadOf returns the payload bytes recorded for a resident buffer,
// 0 when id is not resident.
func (c *LLC) PayloadOf(id BufID) int64 {
	if n := c.find(id); n != 0 {
		return c.nodes[n].payload
	}
	return 0
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
// caller tracking residency needs no second lookup. Unlike
// InsertIOIn/ConsumeIn, TouchState does NOT bump the LLC's
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
	slot, n := c.lookup(id)
	if n != 0 {
		c.moveToFront(n)
		return true, false, nil
	}
	p := &c.parts[part]
	if size > p.capacity {
		return false, false, nil
	}
	n = c.insertNode(slot, id, size, size, part)
	c.pushFront(p, n)
	p.occupancy += size
	c.occupancy += size
	evicted = c.evictOver(p, n, c.evictScratch[:0])
	c.evictScratch = evicted
	return false, true, evicted
}

// Consume is ConsumeIn against partition 0 (miss attribution when the
// buffer was never resident).
func (c *LLC) Consume(id BufID) bool { return c.ConsumeIn(0, id) }

// ConsumeIn models the CPU (or memory controller) reading and retiring
// one I/O buffer. It returns true on an LLC hit: the buffer was still
// resident and is freed. It returns false on a miss: the buffer was
// evicted to DRAM before the consumer reached it, so the caller must
// charge a DRAM access. A hit is charged to the buffer's home partition;
// a miss to part, the reader's own partition.
func (c *LLC) ConsumeIn(part int, id BufID) bool {
	n := c.find(id)
	if n == 0 {
		c.parts[part].stats.Misses++
		c.Misses++
		return false
	}
	p := c.retire(n)
	p.stats.Hits++
	c.Hits++
	return true
}

// retire removes the resident node n from the cache without counting an
// eviction and returns its home partition.
func (c *LLC) retire(n int32) *partition {
	nd := &c.nodes[n]
	p := &c.parts[nd.part]
	p.occupancy -= nd.size
	c.occupancy -= nd.size
	c.unlink(p, n)
	c.removeNode(n)
	return p
}

// Peek is PeekIn against partition 0.
func (c *LLC) Peek(id BufID) bool { return c.PeekIn(0, id) }

// PeekIn is ConsumeIn without retiring: it classifies hit/miss and
// updates counters but leaves a resident buffer in place (used by
// workloads that touch a buffer multiple times).
func (c *LLC) PeekIn(part int, id BufID) bool {
	if n := c.find(id); n != 0 {
		// Refresh recency on touch.
		c.moveToFront(n).stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Probe is ProbeIn against partition 0.
func (c *LLC) Probe(id BufID) bool { return c.ProbeIn(0, id) }

// ProbeIn classifies a read as hit or miss without retiring the buffer or
// refreshing its recency. It models the use-once streaming read of a
// CPU-bypass consumer over a write-back cache: the line stays resident
// (dirty) until capacity pressure evicts it, which is how bypass traffic
// "continuously flushes the LLC" in the paper's coexistence analysis.
func (c *LLC) ProbeIn(part int, id BufID) bool {
	if n := c.find(id); n != 0 {
		c.parts[c.nodes[n].part].stats.Hits++
		c.Hits++
		return true
	}
	c.parts[part].stats.Misses++
	c.Misses++
	return false
}

// Drop removes a buffer without classifying it as hit or miss (used when a
// packet is dropped before any consumer touches it).
func (c *LLC) Drop(id BufID) {
	if n := c.find(id); n != 0 {
		c.retire(n)
	}
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
			if got := c.find(nd.id); got != n {
				return fmt.Errorf("buffer %d at arena slot %d but the index finds slot %d", nd.id, n, got)
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
	indexed := 0
	for _, n := range c.index {
		if n != 0 {
			indexed++
		}
	}
	if count != c.count || indexed != c.count {
		return fmt.Errorf("lists hold %d buffers, index holds %d, count %d", count, indexed, c.count)
	}
	if 2*c.count >= len(c.index) {
		return fmt.Errorf("index at %d/%d slots, over half load", c.count, len(c.index))
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
