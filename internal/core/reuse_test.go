package core_test

import (
	"fmt"
	"testing"

	"ceio/internal/core"
	"ceio/internal/invariants"
	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
	"ceio/internal/workload"
)

// TestReAddedFlowIDGetsNoStalePackets tears flow 3 down and re-adds ID 3
// at once, at instants where a packet of the old incarnation is still
// between the wire and the NIC controller. Such a packet belongs to the
// old flow: it must never be delivered on the new one (a Seq at or above
// the new flow's generated count can only be the old flow's), and the
// auditor, whose delivery-order check sees such a packet as the new
// flow's seq going backwards, must stay clean.
func TestReAddedFlowIDGetsNoStalePackets(t *testing.T) {
	// Removal offsets past 500 us, in ns; each is an instant where a
	// lookup by flow ID hands an old packet to the re-added flow.
	cases := []struct {
		cores   int
		offsets []int
	}{
		{0, []int{30, 45, 60, 75, 90, 99, 198, 222, 246, 267}},
		{4, []int{6, 21, 36, 51, 66, 75, 258, 270, 282, 297}},
	}
	for _, tc := range cases {
		for _, k := range tc.offsets {
			t.Run(fmt.Sprintf("cores=%d/+%dns", tc.cores, k), func(t *testing.T) {
				cfg := iosys.DefaultConfig()
				cfg.Cores = tc.cores
				m := iosys.NewMachine(cfg, core.New(core.DefaultOptions()))
				audit := invariants.Attach(m, 50*sim.Microsecond)
				for id := 1; id <= 8; id++ {
					m.AddFlow(workload.ERPCKV(id, 256, workload.DPDK))
				}
				cut := 500*sim.Microsecond + sim.Time(k)
				m.Run(cut)
				m.RemoveFlow(3)
				nf := m.AddFlow(workload.ERPCKV(3, 256, workload.DPDK))
				stale := 0
				prev := m.OnDeliver
				m.OnDeliver = func(f *iosys.Flow, p *pkt.Packet) {
					if f == nf && p.Seq >= nf.Generated {
						stale++
					}
					prev(f, p)
				}
				m.Run(cut + 200*sim.Microsecond)
				audit.Final()
				if stale > 0 {
					t.Errorf("%d packets of the removed flow were delivered on the re-added flow 3", stale)
				}
				if err := audit.Err(); err != nil {
					t.Error(err)
				}
				if nf.DeliveredCount() == 0 {
					t.Fatal("re-added flow 3 delivered nothing: the stale-packet check saw no deliveries")
				}
			})
		}
	}
}
