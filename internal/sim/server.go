package sim

// Server models a FIFO store-and-forward resource with a finite service
// bandwidth and a fixed per-item latency: a PCIe link segment, a memory
// controller, or the on-NIC DRAM of a SmartNIC. Work items occupy the
// server back-to-back (serialisation delay = size/bandwidth) and the
// completion callback fires after the additional fixed latency, modelling
// pipelined transfer: a new item may begin service while a previous item is
// still "in flight" through the latency stage.
type Server struct {
	eng *Engine

	bytesPerNs float64 // service bandwidth
	latency    Time    // fixed pipeline latency added after serialisation

	busyUntil Time // when the serialisation stage frees up

	// Statistics.
	ItemsServed uint64
	BytesServed uint64
	BusyTime    Time // cumulative serialisation time
	MaxQueueing Time // worst-case wait for the serialisation stage
}

// NewServer constructs a Server with bandwidth in bytes per second.
func NewServer(eng *Engine, bytesPerSecond float64, latency Time) *Server {
	if bytesPerSecond <= 0 {
		panic("sim: server bandwidth must be positive")
	}
	return &Server{eng: eng, bytesPerNs: bytesPerSecond / 1e9, latency: latency}
}

// serialisation returns the time to clock size bytes through the server.
func (s *Server) serialisation(size int) Time {
	t := Time(float64(size) / s.bytesPerNs)
	if t < 1 {
		t = 1
	}
	return t
}

// SubmitArg enqueues a transfer of size bytes; fn(arg) runs when it fully
// completes (serialisation + fixed latency), and SubmitArg returns that
// completion time.
func (s *Server) SubmitArg(size int, fn func(any), arg any) Time {
	completion := s.Submit(size)
	s.eng.AtArg(completion, fn, arg)
	return completion
}

// Submit books a transfer of size bytes through the serialisation stage
// with no completion callback, for load that only consumes bandwidth, and
// returns its completion time.
func (s *Server) Submit(size int) Time {
	now := s.eng.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if w := start - now; w > s.MaxQueueing {
		s.MaxQueueing = w
	}
	ser := s.serialisation(size)
	s.busyUntil = start + ser
	s.BusyTime += ser
	s.ItemsServed++
	s.BytesServed += uint64(size)
	return s.busyUntil + s.latency
}

// QueueDelay reports how long a transfer submitted now would wait before
// beginning serialisation.
func (s *Server) QueueDelay() Time {
	if d := s.busyUntil - s.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// Utilization returns the fraction of time the serialisation stage has been
// busy since the start of the simulation.
func (s *Server) Utilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(s.eng.Now())
}
