package fabric

import (
	"testing"

	"ceio/internal/sim"
)

// FuzzFabric drives the switch with an arbitrary schedule of frame
// injections, port flaps, and capacity cuts decoded from the fuzz
// input, and asserts the two contract properties after every step and
// at the end:
//
//   - byte (and frame) conservation: injected == delivered + dropped +
//     still queued, at all times;
//   - per-(src, dst) FIFO: frames of one source-destination pair are
//     delivered in injection order, never earlier than injection time
//     plus propagation delay.
//
// Wired into the CI chaos-fuzz job next to the SW-ring, repartitioner,
// RSS, and pipeline targets.
func FuzzFabric(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x40, 0x55, 0xaa})
	f.Add([]byte{9, 9, 9, 9, 200, 200, 200, 200, 1, 1, 1, 1, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ports = 4
		cfg := Config{Ports: ports, GbpsPerPort: 10, BufBytes: 8 << 10, PropDelay: 500 * sim.Nanosecond}
		type sent struct {
			seq int
			at  sim.Time
		}
		s, err := New[sent](cfg)
		if err != nil {
			t.Fatal(err)
		}
		var (
			now      sim.Time
			nextSeq  int
			inflight = map[[2]int][]sent{} // accepted frames per (src, dst), FIFO
			seen     = map[[2]int]int{}    // frames of the pair already delivered
		)
		conserveNow := func() {
			st := s.Stats()
			if st.InjectedBytes != st.DeliveredBytes+st.DroppedBytes+uint64(s.QueuedBytes()) {
				t.Fatalf("byte conservation broken at %v: injected=%d delivered=%d dropped=%d queued=%d",
					now, st.InjectedBytes, st.DeliveredBytes, st.DroppedBytes, s.QueuedBytes())
			}
			if st.InjectedMsgs != st.DeliveredMsgs+st.DroppedMsgs+uint64(s.QueuedMsgs()) {
				t.Fatalf("frame conservation broken at %v: injected=%d delivered=%d dropped=%d queued=%d",
					now, st.InjectedMsgs, st.DeliveredMsgs, st.DroppedMsgs, s.QueuedMsgs())
			}
		}
		checkDeliveries := func(ds []Delivery[sent]) {
			for _, d := range ds {
				p := d.Msg.Payload
				pair := [2]int{d.Msg.Src, d.Msg.Dst}
				q := inflight[pair]
				k := seen[pair]
				if k >= len(q) {
					t.Fatalf("pair %v delivered more frames than accepted", pair)
				}
				if q[k].seq != p.seq {
					t.Fatalf("pair %v FIFO broken: delivered seq %d, expected seq %d",
						pair, p.seq, q[k].seq)
				}
				if d.At < q[k].at+cfg.PropDelay {
					t.Fatalf("pair %v seq %d delivered at %v, before inject %v + propagation %v",
						pair, p.seq, d.At, q[k].at, cfg.PropDelay)
				}
				seen[pair] = k + 1
			}
		}

		for i := 0; i+3 < len(data); i += 4 {
			op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
			now += sim.Time(int(a)*7 + 1)
			switch op % 8 {
			case 6:
				s.SetPortDown(int(b)%ports, c%2 == 0)
			case 7:
				s.SetCapacityFactor(float64(int(c)%100+1) / 100)
			default:
				src, dst := int(b)%ports, int(c)%ports
				bytes := int(a)*11 + 1
				m := sent{seq: nextSeq, at: now}
				nextSeq++
				if s.Inject(now, Msg[sent]{Src: src, Dst: dst, Bytes: bytes, Payload: m}) {
					pair := [2]int{src, dst}
					inflight[pair] = append(inflight[pair], m)
				}
			}
			conserveNow()
			checkDeliveries(s.Drain())
		}

		// Restore every port and run the switch dry: all queued frames must
		// eventually be delivered and conservation must close exactly.
		for p := 0; p < ports; p++ {
			s.SetPortDown(p, false)
		}
		for {
			at, ok := s.NextEventAt()
			if !ok {
				break
			}
			s.AdvanceTo(at)
		}
		checkDeliveries(s.Drain())
		if s.QueuedBytes() != 0 || s.QueuedMsgs() != 0 {
			t.Fatalf("switch not drained: %d bytes, %d msgs still queued", s.QueuedBytes(), s.QueuedMsgs())
		}
		st := s.Stats()
		if st.InjectedBytes != st.DeliveredBytes+st.DroppedBytes {
			t.Fatalf("final byte conservation broken: injected=%d delivered=%d dropped=%d",
				st.InjectedBytes, st.DeliveredBytes, st.DroppedBytes)
		}
	})
}
