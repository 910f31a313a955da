// Package fabric models the top-of-rack switch every balancer→host and
// host→host control message of a simulated CEIO rack traverses. Until
// this package existed, inter-host traffic teleported: probes, drain
// notices, and credit-replaying migration handshakes arrived after a
// fixed RTT regardless of load, which made the rack-scale "last mile"
// framing of the RDCA paper — and the full-system fidelity argument of
// the gem5 kernel-bypass work — hollow. Here fabric contention is
// explicit: each egress port serializes at a configured line rate,
// frames share one switch buffer with tail-drop, and contending ingress
// ports are arbitrated by a deterministic round-robin scan over
// per-source virtual output queues (VOQs), so head-of-line effects,
// queueing delay, and drops all emerge from the schedule of injections
// rather than from a random process.
//
// The switch is a pure state machine over the simulated clock with no
// engine dependency: Inject files a frame at its injection time,
// AdvanceTo runs service completions up to a bound, and Drain hands
// back the finished deliveries stamped with their wire-exit times. The
// payload type P is the caller's: the switch carries it by value and
// never inspects it, so a frame costs no interface boxing. The sharded
// fleet drives the switch at lockstep-epoch barriers (single-threaded,
// in canonical message order), which keeps every run byte-identical at
// any worker-pool width, and its barrier planner reads NextEventAt to
// skip barriers at which no service can complete.
//
// Two conservation properties hold by construction and are enforced by
// the fleet auditor and FuzzFabric: every injected byte is eventually
// delivered, dropped, or still queued (injected == delivered + dropped
// + queued), and frames of one (src, dst) pair leave in injection order
// (per-pair FIFO — VOQs never reorder within a source).
package fabric

import (
	"cmp"
	"fmt"
	"slices"

	"ceio/internal/sim"
)

// Config describes the switch. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// Ports is the number of switch ports. A rack uses one port per host
	// plus one uplink port for the balancer's control plane.
	Ports int
	// GbpsPerPort is the per-port line rate in gigabits per second;
	// serializing an f-byte frame occupies its egress port for
	// f*8/GbpsPerPort nanoseconds (minimum 1ns).
	GbpsPerPort float64
	// BufBytes is the shared store-and-forward buffer: the sum of all
	// queued and in-service frame bytes. An arrival that would exceed it
	// is tail-dropped.
	BufBytes int
	// PropDelay is the port-to-port propagation plus pipeline latency
	// added after serialization. It is also the fleet's lockstep-epoch
	// quantum (the conservative lookahead): no frame injected in an
	// epoch can be delivered before the epoch's barrier.
	PropDelay sim.Time
}

// DefaultConfig returns a 100 Gbps ToR with a 2 MiB shared buffer and
// 1 µs port-to-port latency, the class of device the paper's testbed
// (§6.1) sits behind.
func DefaultConfig(ports int) Config {
	return Config{
		Ports:       ports,
		GbpsPerPort: 100,
		BufBytes:    2 << 20,
		PropDelay:   sim.Microsecond,
	}
}

// Validate reports structurally invalid switch configurations.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.Ports >= 1, "Ports >= 1"},
		{c.GbpsPerPort > 0, "GbpsPerPort > 0"},
		{c.BufBytes > 0, "BufBytes > 0"},
		{c.PropDelay > 0, "PropDelay > 0"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("fabric: invalid config: %s", ch.what)
		}
	}
	return nil
}

// Msg is one frame traversing the fabric. Payload is opaque to the
// switch; the fleet routes on it at delivery time.
type Msg[P any] struct {
	Src, Dst int
	Bytes    int
	Payload  P
}

// Delivery is a frame leaving the switch: Msg plus the time its last
// bit exits the destination port's wire.
type Delivery[P any] struct {
	At  sim.Time
	Msg Msg[P]
}

// Stats aggregates the switch counters the byte-conservation invariant
// is audited over.
type Stats struct {
	InjectedMsgs, InjectedBytes   uint64
	DeliveredMsgs, DeliveredBytes uint64
	DroppedMsgs, DroppedBytes     uint64
	// TailDrops counts drops from shared-buffer exhaustion; PortDownDrops
	// counts drops on a flapped (administratively down) port. Their sum
	// is DroppedMsgs.
	TailDrops, PortDownDrops uint64
}

// qmsg is one queued frame.
type qmsg[P any] struct {
	msg Msg[P]
	seq uint64 // global injection order, for delivery tie-breaks
}

// port is the egress state of one switch port.
type port[P any] struct {
	// voq[s] is the FIFO of frames from source port s awaiting this
	// egress port, drained by the round-robin arbiter.
	voq []sim.Queue[qmsg[P]]
	// rr is the source index the arbiter starts its next scan after, so
	// contending sources share the port in deterministic turns.
	rr int
	// busy marks a frame in serialization; cur leaves the port at
	// busyUntil and reaches the wire PropDelay later.
	busy      bool
	busyUntil sim.Time
	cur       qmsg[P]
	// down mirrors the port-flap fault: a down port drops arrivals and
	// pauses service (frames already queued wait out the flap).
	down bool

	queuedMsgs int
}

// Switch is the ToR model. Not safe for concurrent use: the fleet
// drives it from barrier context only.
type Switch[P any] struct {
	cfg   Config
	ports []*port[P]
	// clock is the switch's internal time; Inject and AdvanceTo must be
	// called with nondecreasing times.
	clock sim.Time
	// capFactor scales every port's line rate (the fabric_cut fault);
	// 1 = full capacity.
	capFactor float64
	// bufUsed is the shared-buffer occupancy: queued plus in-service
	// frame bytes.
	bufUsed int

	seq   uint64
	out   []Delivery[P] // completed since the last Drain; reused across Drains
	stats Stats
}

// New builds a switch; invalid configurations are reported as errors.
func New[P any](cfg Config) (*Switch[P], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch[P]{cfg: cfg, capFactor: 1}
	for i := 0; i < cfg.Ports; i++ {
		s.ports = append(s.ports, &port[P]{voq: make([]sim.Queue[qmsg[P]], cfg.Ports)})
	}
	return s, nil
}

// Config returns the switch configuration.
func (s *Switch[P]) Config() Config { return s.cfg }

// Stats returns the aggregate switch counters.
func (s *Switch[P]) Stats() Stats { return s.stats }

// QueuedBytes reports the shared-buffer occupancy (queued plus
// in-service frames). Together with the Stats counters it closes the
// byte-conservation identity: injected == delivered + dropped + queued.
func (s *Switch[P]) QueuedBytes() int { return s.bufUsed }

// QueuedMsgs reports the frames currently queued or in service.
func (s *Switch[P]) QueuedMsgs() int {
	n := 0
	for _, p := range s.ports {
		n += p.queuedMsgs
		if p.busy {
			n++
		}
	}
	return n
}

// DownPorts counts administratively down (flapped) ports.
func (s *Switch[P]) DownPorts() int {
	n := 0
	for _, p := range s.ports {
		if p.down {
			n++
		}
	}
	return n
}

// SetPortDown flaps egress port p: while down it drops arrivals and
// pauses service start (a frame mid-serialization finishes; queued
// frames wait for the port to come back).
func (s *Switch[P]) SetPortDown(p int, down bool) {
	if p < 0 || p >= len(s.ports) {
		return
	}
	was := s.ports[p].down
	s.ports[p].down = down
	if was && !down {
		// Port restored: resume service on whatever queued during the flap.
		s.kick(s.ports[p], s.clock)
	}
}

// SetCapacityFactor scales every port's line rate (the fabric_cut
// degrade); factor is clamped to (0, 1]. In-service frames keep the
// rate they started with; the cut applies from the next service start.
func (s *Switch[P]) SetCapacityFactor(f float64) {
	if f <= 0 {
		f = 0.01
	}
	if f > 1 {
		f = 1
	}
	s.capFactor = f
}

// serTime returns the serialization occupancy of an n-byte frame at the
// current effective line rate (minimum 1ns, so zero-length control
// frames still occupy the port).
func (s *Switch[P]) serTime(n int) sim.Time {
	gbps := s.cfg.GbpsPerPort * s.capFactor
	ns := float64(n) * 8 / gbps
	t := sim.Time(ns)
	if t < 1 {
		t = 1
	}
	return t
}

// Inject files one frame at time now (now must be nondecreasing across
// calls; the fleet's barrier feeds frames in canonical time order).
// The return reports acceptance: false means the frame was dropped at
// ingress — shared buffer full, destination port down, or destination
// out of range — and will never be delivered.
func (s *Switch[P]) Inject(now sim.Time, m Msg[P]) bool {
	s.AdvanceTo(now)
	s.stats.InjectedMsgs++
	s.stats.InjectedBytes += uint64(m.Bytes)
	if m.Dst < 0 || m.Dst >= len(s.ports) || m.Src < 0 || m.Src >= len(s.ports) {
		s.drop(m, false)
		return false
	}
	p := s.ports[m.Dst]
	if p.down {
		s.drop(m, true)
		return false
	}
	if s.bufUsed+m.Bytes > s.cfg.BufBytes {
		s.drop(m, false)
		return false
	}
	s.bufUsed += m.Bytes
	s.seq++
	p.voq[m.Src].Push(qmsg[P]{msg: m, seq: s.seq})
	p.queuedMsgs++
	s.kick(p, now)
	return true
}

// drop counts one dropped frame (portDown selects the drop class).
func (s *Switch[P]) drop(m Msg[P], portDown bool) {
	s.stats.DroppedMsgs++
	s.stats.DroppedBytes += uint64(m.Bytes)
	if portDown {
		s.stats.PortDownDrops++
	} else {
		s.stats.TailDrops++
	}
}

// kick starts service on an idle, up port with queued frames.
func (s *Switch[P]) kick(p *port[P], now sim.Time) {
	if p.busy || p.down {
		return
	}
	q, ok := s.nextRR(p)
	if !ok {
		return
	}
	p.busy = true
	p.cur = q
	p.busyUntil = now + s.serTime(q.msg.Bytes)
}

// nextRR pops the next frame under round-robin arbitration: scan source
// ports starting after the last-served one, take the head of the first
// non-empty VOQ. Deterministic by construction.
func (s *Switch[P]) nextRR(p *port[P]) (qmsg[P], bool) {
	n := len(p.voq)
	for i := 1; i <= n; i++ {
		src := (p.rr + i) % n
		q := &p.voq[src]
		if q.Len() == 0 {
			continue
		}
		m := q.Pop()
		p.rr = src
		p.queuedMsgs--
		return m, true
	}
	return qmsg[P]{}, false
}

// AdvanceTo runs every service completion with busyUntil <= t, starting
// follow-on services as ports free up, and leaves the internal clock at
// t. Completions are processed in (busyUntil, port) order, so the
// delivery sequence is a pure function of the injection schedule.
func (s *Switch[P]) AdvanceTo(t sim.Time) {
	for {
		best := -1
		var bestAt sim.Time
		for i, p := range s.ports {
			if p.busy && p.busyUntil <= t && (best < 0 || p.busyUntil < bestAt) {
				best, bestAt = i, p.busyUntil
			}
		}
		if best < 0 {
			break
		}
		p := s.ports[best]
		p.busy = false
		s.bufUsed -= p.cur.msg.Bytes
		s.stats.DeliveredMsgs++
		s.stats.DeliveredBytes += uint64(p.cur.msg.Bytes)
		s.out = append(s.out, Delivery[P]{At: bestAt + s.cfg.PropDelay, Msg: p.cur.msg})
		s.kick(p, bestAt)
	}
	if t > s.clock {
		s.clock = t
	}
}

// NextEventAt returns the earliest pending service completion. Between
// injections nothing changes inside the switch before that time, so the
// fleet's barrier planner may skip every barrier earlier than it; an
// engine-driven adapter would re-arm a timer at it instead.
func (s *Switch[P]) NextEventAt() (sim.Time, bool) {
	best := sim.Time(0)
	ok := false
	for _, p := range s.ports {
		if p.busy && (!ok || p.busyUntil < best) {
			best, ok = p.busyUntil, true
		}
	}
	return best, ok
}

// Drain returns the deliveries completed since the last Drain, sorted
// by (exit time, destination port, injection order) — the canonical
// order the fleet's barrier schedules them into destination shards.
// The slice is the switch's own buffer, reused by the next completion:
// it is valid until the next Inject or AdvanceTo.
func (s *Switch[P]) Drain() []Delivery[P] {
	out := s.out
	slices.SortStableFunc(out, func(a, b Delivery[P]) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Msg.Dst, b.Msg.Dst)
	})
	s.out = out[:0]
	return out
}
