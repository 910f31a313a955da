package fabric

import (
	"testing"

	"ceio/internal/sim"
)

func mustNew[P any](t *testing.T, cfg Config) *Switch[P] {
	t.Helper()
	s, err := New[P](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// conserve asserts the byte- and frame-conservation identity.
func conserve[P any](t *testing.T, s *Switch[P]) {
	t.Helper()
	st := s.Stats()
	if st.InjectedBytes != st.DeliveredBytes+st.DroppedBytes+uint64(s.QueuedBytes()) {
		t.Fatalf("byte conservation broken: injected=%d delivered=%d dropped=%d queued=%d",
			st.InjectedBytes, st.DeliveredBytes, st.DroppedBytes, s.QueuedBytes())
	}
	if st.InjectedMsgs != st.DeliveredMsgs+st.DroppedMsgs+uint64(s.QueuedMsgs()) {
		t.Fatalf("frame conservation broken: injected=%d delivered=%d dropped=%d queued=%d",
			st.InjectedMsgs, st.DeliveredMsgs, st.DroppedMsgs, s.QueuedMsgs())
	}
}

// An uncontended frame is delivered after serialization plus propagation.
func TestUncontendedLatency(t *testing.T) {
	cfg := Config{Ports: 4, GbpsPerPort: 100, BufBytes: 1 << 20, PropDelay: sim.Microsecond}
	s := mustNew[struct{}](t, cfg)
	if !s.Inject(0, Msg[struct{}]{Src: 0, Dst: 1, Bytes: 1250}) { // 1250B at 100Gbps = 100ns
		t.Fatal("uncontended inject rejected")
	}
	s.AdvanceTo(10 * sim.Microsecond)
	ds := s.Drain()
	if len(ds) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(ds))
	}
	want := sim.Time(100) + cfg.PropDelay
	if ds[0].At != want {
		t.Fatalf("delivery at %v, want %v", ds[0].At, want)
	}
	conserve(t, s)
}

// Two sources blasting one egress port share it in round-robin turns:
// deliveries alternate sources rather than letting one source starve
// the other.
func TestRoundRobinArbitration(t *testing.T) {
	cfg := Config{Ports: 3, GbpsPerPort: 100, BufBytes: 1 << 20, PropDelay: sim.Microsecond}
	s := mustNew[string](t, cfg)
	// 8 frames from each of src 0 and src 1 to dst 2, all at t=0.
	for i := 0; i < 8; i++ {
		s.Inject(0, Msg[string]{Src: 0, Dst: 2, Bytes: 1250, Payload: "a"})
	}
	for i := 0; i < 8; i++ {
		s.Inject(0, Msg[string]{Src: 1, Dst: 2, Bytes: 1250, Payload: "b"})
	}
	s.AdvanceTo(100 * sim.Microsecond)
	ds := s.Drain()
	if len(ds) != 16 {
		t.Fatalf("got %d deliveries, want 16", len(ds))
	}
	// After the first frame (src 0 began service before src 1 arrived),
	// the arbiter must alternate.
	for i := 1; i < 15; i++ {
		if ds[i].Msg.Src == ds[i+1].Msg.Src {
			t.Fatalf("deliveries %d and %d both from src %d; arbiter not round-robin: %v",
				i, i+1, ds[i].Msg.Src, ds)
		}
	}
	conserve(t, s)
}

// Frames of one (src, dst) pair leave in injection order, and each
// port's deliveries are spaced by at least the serialization time.
func TestPerPairFIFOAndSerialization(t *testing.T) {
	cfg := Config{Ports: 2, GbpsPerPort: 10, BufBytes: 1 << 20, PropDelay: sim.Microsecond}
	s := mustNew[int](t, cfg)
	for i := 0; i < 10; i++ {
		s.Inject(sim.Time(i*10), Msg[int]{Src: 0, Dst: 1, Bytes: 1000, Payload: i})
	}
	s.AdvanceTo(100 * sim.Microsecond)
	ds := s.Drain()
	if len(ds) != 10 {
		t.Fatalf("got %d deliveries, want 10", len(ds))
	}
	ser := s.serTime(1000) // 800ns at 10Gbps
	for i, d := range ds {
		if d.Msg.Payload != i {
			t.Fatalf("delivery %d carries payload %v; FIFO order broken", i, d.Msg.Payload)
		}
		if i > 0 && d.At-ds[i-1].At < ser {
			t.Fatalf("deliveries %d and %d only %v apart, serialization is %v",
				i-1, i, d.At-ds[i-1].At, ser)
		}
	}
	conserve(t, s)
}

// Overrunning the shared buffer tail-drops the excess, and drops count
// toward conservation.
func TestSharedBufferTailDrop(t *testing.T) {
	cfg := Config{Ports: 2, GbpsPerPort: 1, BufBytes: 4000, PropDelay: sim.Microsecond}
	s := mustNew[struct{}](t, cfg)
	accepted := 0
	for i := 0; i < 10; i++ {
		if s.Inject(0, Msg[struct{}]{Src: 0, Dst: 1, Bytes: 1000}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d frames into a 4-frame buffer, want 4", accepted)
	}
	if s.Stats().TailDrops != 6 {
		t.Fatalf("tail drops = %d, want 6", s.Stats().TailDrops)
	}
	conserve(t, s)
	// The buffer drains as frames serialize out; later arrivals fit again.
	s.AdvanceTo(100 * sim.Microsecond)
	if !s.Inject(100*sim.Microsecond, Msg[struct{}]{Src: 0, Dst: 1, Bytes: 1000}) {
		t.Fatal("inject rejected after buffer drained")
	}
	conserve(t, s)
}

// A flapped port drops arrivals while down, holds already-queued frames,
// and resumes service when restored.
func TestPortFlap(t *testing.T) {
	cfg := Config{Ports: 2, GbpsPerPort: 1, BufBytes: 1 << 20, PropDelay: sim.Microsecond}
	s := mustNew[string](t, cfg)
	s.Inject(0, Msg[string]{Src: 0, Dst: 1, Bytes: 1000, Payload: "before"})
	s.Inject(0, Msg[string]{Src: 0, Dst: 1, Bytes: 1000, Payload: "queued"})
	s.AdvanceTo(100)
	s.SetPortDown(1, true)
	if s.DownPorts() != 1 {
		t.Fatalf("down ports = %d, want 1", s.DownPorts())
	}
	if s.Inject(200, Msg[string]{Src: 0, Dst: 1, Bytes: 1000, Payload: "flapped"}) {
		t.Fatal("inject accepted on a down port")
	}
	if s.Stats().PortDownDrops != 1 {
		t.Fatalf("port-down drops = %d, want 1", s.Stats().PortDownDrops)
	}
	// Far past both serialization times: only the in-service frame
	// finished; the queued one waits out the flap.
	s.AdvanceTo(50 * sim.Microsecond)
	if got := len(s.Drain()); got != 1 {
		t.Fatalf("%d deliveries while flapped, want 1 (the in-service frame)", got)
	}
	s.SetPortDown(1, false)
	s.AdvanceTo(100 * sim.Microsecond)
	ds := s.Drain()
	if len(ds) != 1 || ds[0].Msg.Payload != "queued" {
		t.Fatalf("queued frame not delivered after flap cleared: %v", ds)
	}
	conserve(t, s)
}

// A capacity cut stretches serialization by the configured factor.
func TestCapacityCut(t *testing.T) {
	cfg := Config{Ports: 2, GbpsPerPort: 100, BufBytes: 1 << 20, PropDelay: sim.Microsecond}
	s := mustNew[struct{}](t, cfg)
	s.SetCapacityFactor(0.25)
	s.Inject(0, Msg[struct{}]{Src: 0, Dst: 1, Bytes: 1250})
	s.AdvanceTo(10 * sim.Microsecond)
	ds := s.Drain()
	if len(ds) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(ds))
	}
	want := sim.Time(400) + cfg.PropDelay // 100ns at full rate, 4x at quarter rate
	if ds[0].At != want {
		t.Fatalf("delivery at %v under 0.25 capacity, want %v", ds[0].At, want)
	}
	conserve(t, s)
}

// The switch is a pure function of the injection schedule: identical
// schedules produce identical delivery sequences.
func TestDeterministicReplay(t *testing.T) {
	run := func() []Delivery[int] {
		cfg := Config{Ports: 8, GbpsPerPort: 40, BufBytes: 32 << 10, PropDelay: sim.Microsecond}
		s := mustNew[int](t, cfg)
		for i := 0; i < 500; i++ {
			src := (i * 7) % 8
			dst := (i*13 + 3) % 8
			s.Inject(sim.Time(i*17), Msg[int]{Src: src, Dst: dst, Bytes: 100 + (i*37)%1400, Payload: i})
		}
		s.AdvanceTo(sim.Millisecond)
		return s.Drain()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Ports: 0, GbpsPerPort: 100, BufBytes: 1, PropDelay: 1},
		{Ports: 1, GbpsPerPort: 0, BufBytes: 1, PropDelay: 1},
		{Ports: 1, GbpsPerPort: 100, BufBytes: 0, PropDelay: 1},
		{Ports: 1, GbpsPerPort: 100, BufBytes: 1, PropDelay: 0},
	}
	for i, cfg := range bad {
		if _, err := New[struct{}](cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
