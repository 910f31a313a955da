package core

import (
	"testing"

	"ceio/internal/iosys"
	"ceio/internal/sim"
)

// TestWaitQueueStorageTracksBacklog runs CPU-bypass flows on the forced
// slow path next to small KV flows: their on-NIC wait queues fill up
// and, after warm-up, never drain. A queue that reclaimed its consumed
// prefix only when empty would grow with every packet it ever held (over
// 1000 spare slots behind a backlog of about 50 in 2 ms); the storage
// must stay sized by the backlog instead.
func TestWaitQueueStorageTracksBacklog(t *testing.T) {
	cfg := iosys.DefaultConfig()
	opts := DefaultOptions()
	opts.ForceSlowPath = true
	c := New(opts)
	m := iosys.NewMachine(cfg, c)
	for id := 1; id <= 4; id++ {
		m.AddFlow(iosys.FlowSpec{
			ID: id, Kind: iosys.CPUInvolved, PktSize: 144, MsgPkts: 1,
			Cost: iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true},
		})
	}
	for id := 5; id <= 10; id++ {
		m.AddFlow(iosys.FlowSpec{ID: id, Kind: iosys.CPUBypass, PktSize: 1024, MsgPkts: 1024, PostPasses: 2})
	}
	const warm, dur = sim.Millisecond, 2 * sim.Millisecond
	peak, spare := 0, 0
	standing := map[*flowState]bool{}
	m.Eng.Every(sim.Microsecond, sim.Microsecond, func() {
		for _, st := range c.flows {
			if st.f.Kind != iosys.CPUBypass {
				continue
			}
			n := st.waitQ.Len()
			peak = max(peak, n)
			spare = max(spare, cap(st.waitQ.Items()))
			if m.Eng.Now() == warm {
				standing[st] = n > 0
			} else if m.Eng.Now() > warm && n == 0 {
				standing[st] = false
			}
		}
	})
	m.Run(dur)
	held := 0
	for _, ok := range standing {
		if ok {
			held++
		}
	}
	if held == 0 {
		t.Fatalf("no wait queue stayed non-empty after %v (peak backlog %d): the run builds no standing backlog", warm, peak)
	}
	// Samples every 1 us can miss the true peak by a few packets; the
	// queue's own bound is 4x it.
	if spare > 8*peak {
		t.Fatalf("wait-queue storage reached %d slots for a sampled peak backlog of %d", spare, peak)
	}
	t.Logf("%d of 6 bypass queues never drained after %v; peak backlog %d, storage at most %d", held, warm, peak, spare)
}
