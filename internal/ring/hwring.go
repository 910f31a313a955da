// Package ring implements the descriptor rings of the I/O data path: the
// hardware rx rings the NIC posts completions to, and the CEIO software
// ring (§4.2) that unifies fast-path and slow-path packets into a single
// ordered, application-facing abstraction.
package ring

import (
	"ceio/internal/pkt"
)

// HWRing models a hardware descriptor ring with head/tail pointers. The
// producer (NIC firmware) advances the tail when a packet lands in host
// memory; the consumer (driver) advances the head as packets are handed to
// the application. Capacity is fixed at construction; posting to a full
// ring fails, which at the NIC level means the packet is dropped (legacy,
// ShRing) or diverted (CEIO).
type HWRing struct {
	buf  []*pkt.Packet
	head uint64 // next entry to consume
	tail uint64 // next entry to produce

	// Statistics.
	Posted  uint64
	Full    uint64
	Popped  uint64
	MaxFill int
}

// NewHWRing creates a ring with the given number of descriptor entries.
func NewHWRing(capacity int) *HWRing {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("ring: capacity must be a positive power of two")
	}
	return &HWRing{buf: make([]*pkt.Packet, capacity)}
}

// Cap returns the ring capacity in entries.
func (r *HWRing) Cap() int { return len(r.buf) }

// Len returns the number of occupied entries.
func (r *HWRing) Len() int { return int(r.tail - r.head) }

// Free returns the number of available entries.
func (r *HWRing) Free() int { return r.Cap() - r.Len() }

// Post appends a packet descriptor; it fails when the ring is full.
func (r *HWRing) Post(p *pkt.Packet) bool {
	if r.Len() == r.Cap() {
		r.Full++
		return false
	}
	r.buf[r.tail&uint64(r.Cap()-1)] = p
	r.tail++
	r.Posted++
	if l := r.Len(); l > r.MaxFill {
		r.MaxFill = l
	}
	return true
}

// Peek returns the head descriptor without consuming it, or nil.
func (r *HWRing) Peek() *pkt.Packet {
	if r.Len() == 0 {
		return nil
	}
	return r.buf[r.head&uint64(r.Cap()-1)]
}

// Pop consumes and returns the head descriptor, or nil when empty.
func (r *HWRing) Pop() *pkt.Packet {
	if r.Len() == 0 {
		return nil
	}
	idx := r.head & uint64(r.Cap()-1)
	p := r.buf[idx]
	r.buf[idx] = nil
	r.head++
	r.Popped++
	return p
}

// PopLanded pops up to n in-order descriptors whose DMA completed
// (Packet.Landed), appending them to out, and returns the extended
// slice. It stops at the first unlanded head: the driver hands packets
// to the application in ring order.
func (r *HWRing) PopLanded(out []*pkt.Packet, n int) []*pkt.Packet {
	for ; n > 0; n-- {
		head := r.Peek()
		if head == nil || !head.Landed {
			break
		}
		out = append(out, r.Pop())
	}
	return out
}

// Drain empties the ring of a torn-down flow, passing each landed packet
// to fn. An unlanded packet is only unlinked: the DMA write still
// carrying it owns it.
func (r *HWRing) Drain(fn func(*pkt.Packet)) {
	for p := r.Pop(); p != nil; p = r.Pop() {
		if p.Landed {
			fn(p)
		}
	}
}

// Head and Tail expose the raw pointers (the flow controller tracks the
// head pointer of the legacy ring to account credit consumption, §4.1).
func (r *HWRing) Head() uint64 { return r.head }
func (r *HWRing) Tail() uint64 { return r.tail }
