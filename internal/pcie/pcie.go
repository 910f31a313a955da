// Package pcie models the PCIe interconnect between the NIC and the host:
// TLP framing overhead, per-direction link bandwidth, a bounded number of
// outstanding DMA credits, and the hand-off into the host's IIO staging
// buffer. Exhaustion of DMA credits while the host is slow to drain the
// IIO is the mechanism by which inefficient LLC use blocks CPU-bypass
// flows in the paper's analysis (§2.2, impact ②).
package pcie

import (
	"ceio/internal/cache"
	"ceio/internal/faults"
	"ceio/internal/sim"
)

// LinkConfig describes one direction of a PCIe link.
type LinkConfig struct {
	// Bandwidth is the usable data bandwidth in bytes/second
	// (after encoding; PCIe 5.0 x16 is ~63 GB/s raw, ~55 GB/s effective).
	Bandwidth float64
	// PropagationDelay is the one-way latency across the interconnect.
	PropagationDelay sim.Time
	// MaxPayload is the TLP payload size in bytes (typically 256).
	MaxPayload int
	// TLPHeader is the per-TLP framing overhead in bytes (~24).
	TLPHeader int
}

// DefaultLinkConfig matches a PCIe 5.0 x16 interconnect.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		Bandwidth:        55e9,
		PropagationDelay: 350 * sim.Nanosecond,
		MaxPayload:       256,
		TLPHeader:        24,
	}
}

// Link is one direction of the PCIe interconnect.
type Link struct {
	cfg LinkConfig
	srv *sim.Server
}

// NewLink builds a link from its configuration.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 256
	}
	return &Link{cfg: cfg, srv: sim.NewServer(eng, cfg.Bandwidth, cfg.PropagationDelay)}
}

// WireBytes returns the on-wire size of a transfer of size payload bytes,
// including TLP headers.
func (l *Link) WireBytes(size int) int {
	if size <= 0 {
		return l.cfg.TLPHeader
	}
	tlps := (size + l.cfg.MaxPayload - 1) / l.cfg.MaxPayload
	return size + tlps*l.cfg.TLPHeader
}

// TransferArg clocks a transfer across the link; fn(arg) fires on
// arrival.
func (l *Link) TransferArg(size int, fn func(any), arg any) sim.Time {
	return l.srv.SubmitArg(l.WireBytes(size), fn, arg)
}

// QueueDelay reports current serialisation backlog on the link.
func (l *Link) QueueDelay() sim.Time { return l.srv.QueueDelay() }

// Utilization reports the link's busy fraction since simulation start.
func (l *Link) Utilization() float64 { return l.srv.Utilization() }

// Engine models the NIC's DMA engine: a bounded pool of outstanding
// write credits toward the host. Writes traverse the NIC->host link, stage
// into the IIO buffer, and hold their credit until the host memory
// subsystem absorbs them (the deliver callback's Write.Done).
type Engine struct {
	eng    *sim.Engine
	toHost *Link
	toNIC  *Link
	iio    *cache.IIO

	writeCredits int
	maxCredits   int
	pendingW     sim.Queue[*Write]

	// iioWaiting parks writes rejected by a full IIO until it drains.
	iioWaiting sim.Queue[*Write]

	writes sim.FreeList[Write]

	// Read-tag pool: PCIe non-posted reads carry a bounded number of
	// outstanding tags; excess read requests queue. This is the
	// aggregate bottleneck of CEIO's slow path at high flow counts
	// (§6.4 "Understanding Performance Penalties of Slow Path").
	readCredits int
	maxReads    int
	// pendingR queues reads waiting for a tag.
	pendingR sim.Queue[*readOp]

	reads sim.FreeList[readOp]

	// Faults, when set, injects DMA stall episodes: new writes and reads
	// are held until the stall window ends (PCIe credit exhaustion).
	Faults *faults.Injector

	// Statistics.
	Writes          uint64
	Reads           uint64
	CreditStalls    uint64
	ReadStalls      uint64
	IIOBackpressure uint64
	FaultStalls     uint64 // operations deferred by injected DMA stalls
}

// readOp is one in-flight DMA read: a pool-recycled carrier that rides
// the request TLP to the NIC, the device access, and the payload return
// without allocating.
type readOp struct {
	d             *Engine
	size          int
	deviceLatency sim.Time
	fn            func(any)
	arg           any
}

// Write is one in-flight DMA write: a pool-recycled carrier that rides
// the engine's event queue from issue to IIO arrival without allocating.
// The deliver callback receives it and must call Done exactly once when
// the host memory subsystem has absorbed the data — that drains the IIO,
// releases the DMA credit, and recycles the carrier.
type Write struct {
	d       *Engine
	size    int
	deliver func(arg any, w *Write)
	arg     any
}

// Done signals that the host absorbed the write: the IIO slot drains,
// the DMA credit frees (admitting a queued write, if any), and parked
// IIO-backpressured writes retry.
func (w *Write) Done() {
	d := w.d
	size := w.size
	d.writes.Put(w)
	d.iio.Drain(int64(size))
	d.releaseWriteCredit()
	d.retryIIOWaiters()
}

// NewEngine builds a DMA engine with maxOutstanding write credits and a
// read-tag pool of half that size.
func NewEngine(eng *sim.Engine, toHost, toNIC *Link, iio *cache.IIO, maxOutstanding int) *Engine {
	if maxOutstanding <= 0 {
		maxOutstanding = 64
	}
	maxReads := maxOutstanding / 8
	if maxReads < 4 {
		maxReads = 4
	}
	return &Engine{
		eng:          eng,
		toHost:       toHost,
		toNIC:        toNIC,
		iio:          iio,
		writeCredits: maxOutstanding,
		maxCredits:   maxOutstanding,
		readCredits:  maxReads,
		maxReads:     maxReads,
	}
}

// OutstandingReads reports read tags currently in use.
func (d *Engine) OutstandingReads() int { return d.maxReads - d.readCredits }

// OutstandingWrites reports write credits currently in use.
func (d *Engine) OutstandingWrites() int { return d.maxCredits - d.writeCredits }

// WriteTo issues a DMA write of size bytes toward the host. deliver(arg,
// w) is invoked when the data reaches the head of the IIO buffer; the
// host memory subsystem must call w.Done once it has absorbed the data.
// Like the engine's AtArg, the long-lived deliver func plus explicit arg
// make a steady-state write allocation-free.
func (d *Engine) WriteTo(size int, deliver func(arg any, w *Write), arg any) {
	w := d.writes.Get()
	*w = Write{d: d, size: size, deliver: deliver, arg: arg}
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.AtArg(end, retryWrite, w)
		return
	}
	d.issueWrite(w)
}

func retryWrite(arg any) {
	w := arg.(*Write)
	d := w.d
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.AtArg(end, retryWrite, w)
		return
	}
	d.issueWrite(w)
}

func (d *Engine) issueWrite(w *Write) {
	if d.writeCredits == 0 {
		d.CreditStalls++
		d.pendingW.Push(w)
		return
	}
	d.writeCredits--
	d.Writes++
	d.toHost.TransferArg(w.size, writeArrived, w)
}

func writeArrived(arg any) {
	w := arg.(*Write)
	w.d.arriveAtIIO(w)
}

func (d *Engine) arriveAtIIO(w *Write) {
	if !d.iio.TryEnqueue(int64(w.size)) {
		// IIO full: the root complex exerts backpressure. Park the write;
		// it is retried whenever the IIO drains.
		d.IIOBackpressure++
		d.iioWaiting.Push(w)
		return
	}
	w.deliver(w.arg, w)
}

func (d *Engine) releaseWriteCredit() {
	d.writeCredits++
	if d.pendingW.Len() > 0 && d.writeCredits > 0 {
		next := d.pendingW.Pop()
		d.writeCredits--
		d.Writes++
		d.toHost.TransferArg(next.size, writeArrived, next)
	}
}

func (d *Engine) retryIIOWaiters() {
	for d.iioWaiting.Len() > 0 {
		w := d.iioWaiting.Peek()
		if !d.iio.TryEnqueue(int64(w.size)) {
			return
		}
		d.iioWaiting.Pop()
		w.deliver(w.arg, w)
	}
}

// ReadTo issues a DMA read of size bytes from device memory into the host
// (the CEIO slow-path fetch). The request header crosses to the NIC, the
// device serves it (deviceLatency covers on-NIC memory access and any
// internal switch traversal), and the payload crosses back. fn(arg) fires
// when the payload lands in host memory. Reads beyond the tag pool queue
// FIFO — the shared bottleneck that caps aggregate slow-path throughput
// when many flows drain concurrently. Like the engine's AtArg, the
// long-lived fn plus explicit arg make a steady-state read
// allocation-free.
func (d *Engine) ReadTo(size int, deviceLatency sim.Time, fn func(any), arg any) {
	r := d.reads.Get()
	*r = readOp{d: d, size: size, deviceLatency: deviceLatency, fn: fn, arg: arg}
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.AtArg(end, retryRead, r)
		return
	}
	d.issueRead(r)
}

func retryRead(arg any) {
	r := arg.(*readOp)
	d := r.d
	if end := d.Faults.DMAStallEnd(d.eng.Now()); end > 0 {
		d.FaultStalls++
		d.eng.AtArg(end, retryRead, r)
		return
	}
	d.issueRead(r)
}

func (d *Engine) issueRead(r *readOp) {
	if d.readCredits == 0 {
		d.ReadStalls++
		d.pendingR.Push(r)
		return
	}
	d.readCredits--
	d.startRead(r)
}

func (d *Engine) startRead(r *readOp) {
	d.Reads++
	// Request TLP toward the NIC.
	d.toNIC.TransferArg(32, readReqArrived, r)
}

func readReqArrived(arg any) {
	r := arg.(*readOp)
	r.d.eng.AfterArg(r.deviceLatency, readDeviceServed, r)
}

func readDeviceServed(arg any) {
	r := arg.(*readOp)
	r.d.toHost.TransferArg(r.size, readPayloadLanded, r)
}

func readPayloadLanded(arg any) {
	r := arg.(*readOp)
	d := r.d
	fn, farg := r.fn, r.arg
	d.reads.Put(r)
	fn(farg)
	d.readCredits++
	if d.pendingR.Len() > 0 && d.readCredits > 0 {
		d.readCredits--
		d.startRead(d.pendingR.Pop())
	}
}
