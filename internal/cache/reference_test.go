package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLLC is the reference model the arena-backed LLC is checked against:
// the resident set as a Go map of heap nodes on pointer-linked LRU lists,
// keyed by BufID, with no recycling and no handles, so its bookkeeping is
// simple enough to trust. It
// implements the same replacement policy — per-partition LRU, the
// over-capacity keep-the-only-line rule, and the bypass of a buffer
// wider than its partition — and the same counters.
type refLLC struct {
	capacity, occupancy int64
	entries             map[BufID]*refNode
	parts               []refPart
	stats               PartStats
}

type refNode struct {
	id            BufID
	size, payload int64
	part          int
	prev, next    *refNode
}

type refPart struct {
	capacity, occupancy int64
	head, tail          *refNode
	stats               PartStats
}

func newRefLLC(capacities []int64) *refLLC {
	r := &refLLC{entries: make(map[BufID]*refNode)}
	for _, c := range capacities {
		r.parts = append(r.parts, refPart{capacity: c})
		r.capacity += c
	}
	return r
}

func (p *refPart) pushFront(n *refNode) {
	n.prev, n.next = nil, p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *refPart) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (r *refLLC) remove(n *refNode) *refPart {
	p := &r.parts[n.part]
	p.unlink(n)
	delete(r.entries, n.id)
	p.occupancy -= n.size
	r.occupancy -= n.size
	return p
}

// evictOver evicts p's LRU lines until it fits, keeping keep when it is
// the only line left.
func (r *refLLC) evictOver(p *refPart, keep *refNode) (evicted []Evicted) {
	for p.occupancy > p.capacity && p.tail != nil {
		victim := p.tail
		if victim == keep && victim.prev == nil {
			break
		}
		r.remove(victim)
		p.stats.Evictions++
		r.stats.Evictions++
		evicted = append(evicted, Evicted{ID: victim.id, Payload: victim.payload, Part: int32(victim.part)})
	}
	return evicted
}

func (r *refLLC) MoveCapacity(from, to int, bytes int64) []Evicted {
	if bytes <= 0 {
		return nil
	}
	r.parts[from].capacity -= bytes
	r.parts[to].capacity += bytes
	return r.evictOver(&r.parts[from], nil)
}

func (r *refLLC) InsertIOSized(part int, id BufID, size, payload int64) []Evicted {
	p := &r.parts[part]
	if size > p.capacity {
		return []Evicted{{ID: id, Payload: payload, Part: int32(part)}}
	}
	n := &refNode{id: id, size: size, payload: payload, part: part}
	r.entries[id] = n
	p.pushFront(n)
	p.occupancy += size
	r.occupancy += size
	p.stats.Insertions++
	r.stats.Insertions++
	return r.evictOver(p, n)
}

func (r *refLLC) TouchState(part int, id BufID, size int64) (hit, filled bool, evicted []Evicted) {
	if n, ok := r.entries[id]; ok {
		p := &r.parts[n.part]
		p.unlink(n)
		p.pushFront(n)
		return true, false, nil
	}
	p := &r.parts[part]
	if size > p.capacity {
		return false, false, nil
	}
	n := &refNode{id: id, size: size, payload: size, part: part}
	r.entries[id] = n
	p.pushFront(n)
	p.occupancy += size
	r.occupancy += size
	evicted = r.evictOver(p, n)
	_, filled = r.entries[id]
	return false, filled, evicted
}

func (r *refLLC) miss(part int) bool {
	r.parts[part].stats.Misses++
	r.stats.Misses++
	return false
}

func (r *refLLC) ConsumeIn(part int, id BufID) bool {
	n, ok := r.entries[id]
	if !ok {
		return r.miss(part)
	}
	r.remove(n).stats.Hits++
	r.stats.Hits++
	return true
}

func (r *refLLC) ProbeIn(part int, id BufID) bool {
	n, ok := r.entries[id]
	if !ok {
		return r.miss(part)
	}
	r.parts[n.part].stats.Hits++
	r.stats.Hits++
	return true
}

func (r *refLLC) Drop(id BufID) bool {
	n, ok := r.entries[id]
	if ok {
		r.remove(n)
	}
	return ok
}

func (r *refLLC) ImminentIn(part int, thresholdBytes int64) int {
	if thresholdBytes <= 0 {
		return 0
	}
	p := &r.parts[part]
	dist := p.capacity - p.occupancy
	count := 0
	for n := p.tail; n != nil && dist < thresholdBytes; n = n.prev {
		if !IsStateLine(n.id) {
			count++
		}
		dist += n.size
	}
	return count
}

// lru returns partition part's resident buffers, MRU first.
func (r *refLLC) lru(part int) []Evicted {
	var bufs []Evicted
	for n := r.parts[part].head; n != nil; n = n.next {
		bufs = append(bufs, Evicted{ID: n.id, Payload: n.payload, Part: int32(n.part)})
	}
	return bufs
}

// lru returns partition part's resident buffers, MRU first.
func (c *LLC) lru(part int) []Evicted {
	var bufs []Evicted
	for n := c.parts[part].head; n != 0; n = c.nodes[n].next {
		nd := &c.nodes[n]
		bufs = append(bufs, Evicted{ID: nd.id, Payload: nd.payload, Part: nd.part})
	}
	return bufs
}

// diffState compares an LLC with the reference after every operation:
// counters, total and per-partition occupancy, capacity and stats, and
// each partition's full LRU order with every buffer's payload.
func diffState(c *LLC, r *refLLC) error {
	if err := c.checkInvariants(); err != nil {
		return err
	}
	if got := (PartStats{Insertions: c.Insertions, Evictions: c.Evictions, Hits: c.Hits, Misses: c.Misses}); got != r.stats {
		return fmt.Errorf("counters %+v, reference %+v", got, r.stats)
	}
	if c.Occupancy() != r.occupancy || c.Len() != len(r.entries) {
		return fmt.Errorf("occupancy %d len %d, reference %d len %d", c.Occupancy(), c.Len(), r.occupancy, len(r.entries))
	}
	for i := range r.parts {
		rp := &r.parts[i]
		if c.PartCapacity(i) != rp.capacity || c.PartOccupancy(i) != rp.occupancy || c.PartStats(i) != rp.stats {
			return fmt.Errorf("partition %d: cap %d occ %d stats %+v, reference cap %d occ %d stats %+v",
				i, c.PartCapacity(i), c.PartOccupancy(i), c.PartStats(i), rp.capacity, rp.occupancy, rp.stats)
		}
		if got, want := c.lru(i), r.lru(i); !slices.Equal(got, want) {
			return fmt.Errorf("partition %d LRU order %v, reference %v", i, got, want)
		}
	}
	return nil
}

// runLLCDiff decodes data into a partition layout and an operation
// stream, drives the LLC and the reference model through it side by
// side, and fails on the first divergence in a return value, an
// eviction list (contents and order), a counter, a partition's
// occupancy or a partition's LRU order. data[0] picks 1–4 partitions
// and the next bytes their capacities; then every 4 bytes are one
// operation: kind and partition, two argument bytes, then a size or
// argument byte. Inserts write fresh packet buffers, as DMA writes do;
// some carry the state tag with bits outside the state fields, so they
// must still be taken for packet buffers. Reads and drops name any
// buffer inserted so far through the handle its insert returned, so
// they go through stale handles of evicted buffers whose nodes now hold
// later ones. Touches name state lines of four modules whose lines
// spread over 4k values, so the direct tables grow again and again
// mid-stream.
func runLLCDiff(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	nParts := 1 + int(data[0])%4
	data = data[1:]
	caps := make([]int64, nParts)
	var total int64
	for i := range caps {
		caps[i] = 1024
		if i < len(data) {
			caps[i] = 1024 * int64(data[i]%9) // zero-way partitions included
		}
		total += caps[i]
	}
	if total == 0 {
		caps[0], total = 1024, 1024
	}
	if len(data) > nParts {
		data = data[nParts:]
	} else {
		data = nil
	}
	c := NewLLC(total)
	if err := c.Partition(caps); err != nil {
		t.Fatal(err)
	}
	r := newRefLLC(caps)
	type buf struct {
		id BufID
		h  Handle
	}
	var bufs []buf // every packet buffer inserted, oldest first

	for i := 0; i+3 < len(data); i += 4 {
		op, x, y, z := data[i], data[i+1], data[i+2], data[i+3]
		part := int(op/10) % nParts
		// b is the packet buffer a read or drop names: one of the last
		// 256 inserted.
		var b buf
		if len(bufs) > 0 {
			b = bufs[len(bufs)-1-int(x)%len(bufs)]
		}
		line := StateLineID(int(y&3), int(x)*16+int(y>>4))
		size := 64 * int64(1+z%32)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %d (kind %d part %d x %d y %d z %d): %s", i/4, op%10, part, x, y, z, fmt.Sprintf(format, args...))
		}
		switch op % 10 {
		case 0, 1:
			b.id = BufID(len(bufs) + 1)
			if y&3 == 3 {
				b.id |= stateTag | 3<<40
			}
			payload := 1 + int64(y)*size/256
			want := r.InsertIOSized(part, b.id, size, payload)
			var got []Evicted
			b.h, got = c.InsertIOSized(part, b.id, size, payload)
			if !slices.Equal(got, want) {
				fail("InsertIOSized evicted %v, reference %v", got, want)
			}
			bufs = append(bufs, b)
		case 2, 3:
			wh, wf, wev := r.TouchState(part, line, 64)
			gh, gf, gev := c.TouchState(part, line, 64)
			if gh != wh || gf != wf || !slices.Equal(gev, wev) {
				fail("TouchState = %v, %v, %v; reference %v, %v, %v", gh, gf, gev, wh, wf, wev)
			}
			_, want := r.entries[line]
			if got := c.Resident(0, line); got != want {
				fail("Resident(line %#x) = %v, reference %v", uint64(line), got, want)
			}
		case 4:
			if got, want := c.ConsumeIn(part, b.h, b.id), r.ConsumeIn(part, b.id); got != want {
				fail("ConsumeIn = %v, reference %v", got, want)
			}
		case 5, 6:
			if got, want := c.ProbeIn(part, b.h, b.id), r.ProbeIn(part, b.id); got != want {
				fail("ProbeIn = %v, reference %v", got, want)
			}
		case 7:
			if got, want := c.Drop(b.h, b.id), r.Drop(b.id); got != want {
				fail("Drop = %v, reference %v", got, want)
			}
		case 8:
			to := (part + 1 + int(z)) % nParts
			if to == part {
				continue
			}
			bytes := min(64*int64(1+x%32), c.PartCapacity(part))
			want := r.MoveCapacity(part, to, bytes)
			if got := c.MoveCapacity(part, to, bytes); !slices.Equal(got, want) {
				fail("MoveCapacity(%d→%d, %d) evicted %v, reference %v", part, to, bytes, got, want)
			}
		case 9:
			threshold := int64(z)*64 - 512
			if got, want := c.ImminentIn(part, threshold), r.ImminentIn(part, threshold); got != want {
				fail("ImminentIn(%d) = %d, reference %d", threshold, got, want)
			}
		}
		if b.id != 0 {
			_, want := r.entries[b.id]
			if got := c.Resident(b.h, b.id); got != want {
				fail("Resident(%#x) = %v, reference %v", uint64(b.id), got, want)
			}
		}
		if err := diffState(c, r); err != nil {
			fail("%v", err)
		}
	}
}

// TestLLCMatchesReference runs long random operation streams over every
// partition count through the differential driver.
func TestLLCMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+4+4*6000)
		rng.Read(data)
		data[0] = byte(seed - 1) // 1–4 partitions, twice each
		runLLCDiff(t, data)
	}
}

// FuzzLLC feeds arbitrary byte strings to the differential driver.
func FuzzLLC(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x00, 0x01, 0x02, 0x0a, 0x01, 0x02, 0x04, 0x01, 0x00, 0x1f})
	f.Add([]byte{0x03, 0x02, 0x00, 0x05, 0x08, 0x12, 0x07, 0x04, 0x10, 0x08, 0x40, 0x00, 0x03})
	f.Add([]byte("touch-insert-consume-move-imminent-payload"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runLLCDiff(t, data)
	})
}
