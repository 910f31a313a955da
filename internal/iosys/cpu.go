package iosys

import (
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

// Core models one CPU core running a DPDK-style polling loop: ask the
// datapath driver for a batch, spend the modelled CPU time, hand the
// packets to the application, repeat. An empty poll retries after the
// configured poll interval.
//
// Every CPU-involved flow is attached to exactly one core (Flow.core).
// With Config.Cores > 0 a core drains one rx queue, round-robining the
// CPU-involved flows RSS hashed or pinned onto it. With Config.Cores == 0
// each flow gets a core of its own (the paper pins one core per I/O
// flow, §2.3): the same core with a single flow and no queue. All cores
// share the LLC/DDIO region, memory controller, and PCIe link through
// the common Machine models, so they contend exactly where real cores
// do.
//
// Polls are gated on a doorbell (see Datapath and Machine.Doorbell): a
// round of polls that finds nothing disarms the core, and a landing or a
// datapath doorbell re-arms it. A disarmed core still ticks at its
// back-off schedule and counts each tick as an empty poll, but skips the
// datapath, whose answer is known to be empty. Such a tick reads and
// writes only the leading fields below (40 bytes), so thousands of idle
// per-flow cores stay cheap to step.
type Core struct {
	m *Machine
	// running is set while the core has flows to drain (start/stop), so
	// a running core always has at least one.
	running bool
	armed   bool // the next poll asks the datapath
	// idleStreak is int32 so it packs beside the two flags, holding Core
	// in its allocation size class.
	idleStreak int32

	pollCounts // Polls, EmptyPolls, GatedPolls

	queue int // rx queue index, -1 for a Cores == 0 per-flow core

	flows  []*Flow // flows this core drains (at most 1 when Cores == 0)
	cursor int     // round-robin position into flows

	// A core processes one batch at a time, so the in-flight batch rides
	// in the fields below between the poll and its service completion;
	// batch's backing array is the buffer every poll appends into.
	batch     []*pkt.Packet
	batchFlow *Flow
	batchCost sim.Time

	// Service statistics.
	Processed uint64
	BusyTime  sim.Time
	StallTime sim.Time // injected CPU stall time absorbed by this core
}

// pollCounts are a core's poll-loop statistics. EmptyPolls includes
// GatedPolls, the empty polls answered without calling the datapath.
type pollCounts struct {
	Polls      uint64
	EmptyPolls uint64
	GatedPolls uint64
}

func (p *pollCounts) add(q pollCounts) {
	p.Polls += q.Polls
	p.EmptyPolls += q.EmptyPolls
	p.GatedPolls += q.GatedPolls
}

// maxIdleBackoff caps the poll back-off for long-idle cores so thousands
// of idle flows don't flood the event queue (the flow-scaling runs).
const maxIdleBackoff = 128

// Queue returns the rx queue this core drains, -1 for a Cores == 0
// per-flow core.
func (c *Core) Queue() int { return c.queue }

// Armed reports whether the core's next poll calls the datapath; false
// after a round of polls came back empty, until a doorbell rings.
func (c *Core) Armed() bool { return c.armed }

// FlowCount returns the number of flows currently assigned to this core.
func (c *Core) FlowCount() int { return len(c.flows) }

// addFlow hands a flow to this core's poll loop, starting the loop if the
// core was idle with no flows. A joining flow arms the core, so its first
// poll asks the datapath whatever state the flow starts in.
func (c *Core) addFlow(f *Flow) {
	c.flows = append(c.flows, f)
	c.armed = true
	c.start()
}

// removeFlow detaches a flow; the core parks (stops polling) once its
// last flow leaves.
func (c *Core) removeFlow(id int) {
	for i, f := range c.flows {
		if f.ID == id {
			c.flows = append(c.flows[:i], c.flows[i+1:]...)
			if c.cursor > i {
				c.cursor--
			}
			break
		}
	}
	if len(c.flows) == 0 {
		c.stop()
	} else if c.cursor >= len(c.flows) {
		c.cursor = 0
	}
}

func (c *Core) start() {
	if c.running {
		return
	}
	c.running = true
	c.idleStreak = 0
	c.m.Eng.AfterArg(0, coreLoop, c)
}

func (c *Core) stop() { c.running = false }

// coreLoop and coreServe are the poll loop's scheduling trampolines: one
// func(any) each for every core, so polling allocates nothing.
func coreLoop(arg any) { arg.(*Core).loop() }

func coreServe(arg any) { arg.(*Core).serveBatch() }

func (c *Core) loop() {
	if !c.running {
		return
	}
	c.Polls++
	if !c.armed {
		// Nothing landed and no datapath rang since the last empty round,
		// so every flow's poll would come back empty. The tick stays in
		// the schedule: same-timestamp events fire in scheduling order, so
		// dropping it would move every later poll relative to them.
		c.GatedPolls++
		c.idle()
		return
	}
	c.armed = false
	// Round-robin service: starting at the cursor, the first flow with a
	// non-empty batch wins the poll. With a single flow this is a
	// dedicated-core loop. A datapath whose flow can still make progress
	// rings the doorbell from inside Poll, re-arming the core.
	var batch []*pkt.Packet
	var flow *Flow
	n := len(c.flows)
	for i := 0; i < n; i++ {
		cand := c.flows[(c.cursor+i)%n]
		if b := c.m.DP.Poll(cand, c.batch[:0], BatchSize); len(b) > 0 {
			batch, flow = b, cand
			c.cursor = (c.cursor + i + 1) % n
			break
		}
	}
	if len(batch) == 0 {
		c.idle()
		return
	}
	// The round stopped at the first busy flow: it, or the flows after
	// it, may have more waiting.
	c.armed = true
	c.idleStreak = 0
	var total sim.Time
	for _, p := range batch {
		total += c.m.PacketCPUCost(flow, p)
	}
	// Injected per-core stall (IRQ storm, co-tenant preemption): the batch
	// takes longer, backpressuring the ring and, transitively, the wire.
	if stall := c.m.Faults.CPUStall(c.m.Eng.Now()); stall > 0 {
		c.StallTime += stall
		total += stall
	}
	c.batch, c.batchFlow, c.batchCost = batch, flow, total
	c.m.Eng.AfterArg(total, coreServe, c)
}

// idle counts an empty poll and schedules the next one under exponential
// back-off: a busy core re-polls at the configured interval, a long-idle
// one at up to maxIdleBackoff times that.
func (c *Core) idle() {
	c.EmptyPolls++
	if c.idleStreak < maxIdleBackoff {
		c.idleStreak += c.idleStreak + 1
	}
	backoff := c.idleStreak
	if backoff > maxIdleBackoff {
		backoff = maxIdleBackoff
	}
	c.m.Eng.AfterArg(PollInterval*sim.Time(backoff), coreLoop, c)
}

// serveBatch completes the in-flight batch after its modelled CPU time:
// the packets are delivered to the application and the loop re-polls.
func (c *Core) serveBatch() {
	batch, flow := c.batch, c.batchFlow
	c.BusyTime += c.batchCost
	c.batch, c.batchFlow = batch[:0], nil
	for _, p := range batch {
		c.Processed++
		c.m.Deliver(flow, p)
	}
	c.loop()
}

// Utilization reports the fraction of wall time this core spent
// processing packets.
func (c *Core) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(c.BusyTime) / float64(now)
}
