package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ceio/internal/iosys"
	"ceio/internal/pkt"
	"ceio/internal/sim"
)

// quickCarve generates bounded-but-arbitrary carve inputs for
// testing/quick: totals up to the realistic C_total range and weight
// vectors covering empty, all-zero, and skewed populations.
type quickCarve struct {
	total   int
	weights []int
}

func (quickCarve) Generate(r *rand.Rand, _ int) reflect.Value {
	qc := quickCarve{total: r.Intn(10000)}
	n := 1 + r.Intn(16)
	qc.weights = make([]int, n)
	for i := range qc.weights {
		if r.Intn(3) > 0 { // leave ~1/3 of the cores empty
			qc.weights[i] = r.Intn(40)
		}
	}
	return reflect.ValueOf(qc)
}

// TestCarveSharesConservesTotal is the credit-conservation property of
// the per-core carve: for any total and any weight vector the shares
// sum exactly to the total and are individually non-negative, so moving
// budget between cores can never mint or destroy credits (Eq. 1's
// C_total stays the machine-wide bound).
func TestCarveSharesConservesTotal(t *testing.T) {
	prop := func(qc quickCarve) bool {
		shares := carveShares(qc.total, qc.weights)
		if len(shares) != len(qc.weights) {
			return false
		}
		sum := 0
		for _, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == qc.total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCarveSharesDeterministicAndMonotone pins two more properties:
// the carve is a pure function of its inputs (re-carving with the same
// populations must not move credits), and a core with strictly more
// active flows never falls more than the one round-robin remainder
// credit below a lighter core's share.
func TestCarveSharesDeterministicAndMonotone(t *testing.T) {
	prop := func(qc quickCarve) bool {
		a := carveShares(qc.total, qc.weights)
		b := carveShares(qc.total, qc.weights)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		for i, wi := range qc.weights {
			for j, wj := range qc.weights {
				if wi > wj && a[i] < a[j]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCarveSharesEqualWhenUnweighted pins the bootstrap carve used at
// Attach time (no population information yet): all-zero weights yield an
// equal split with the remainder spread one credit at a time from core 0.
func TestCarveSharesEqualWhenUnweighted(t *testing.T) {
	shares := carveShares(10, make([]int, 4))
	want := []int{3, 3, 2, 2}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("carveShares(10, zeros×4) = %v, want %v", shares, want)
	}
}

// TestCoreShareGatedFlowKeepsCoreArmed pins Poll's doorbell for a flow
// that holds credits but waits on the slow path only because its core's
// carved share is fully in flight. The share can free without any
// delivery on that core (a co-located flow's teardown reclaims its
// credits, a recarve grows the share), so such a flow is not paused:
// its polls keep ringing and its core stays armed until the share frees.
//
// Two flows share rx queue 1. The hog sends one endless message, so
// lazy release keeps every fast-path credit it consumed in flight. Six
// flows joining cores 2-4 at 500 us carve core 1's share below the
// hog's holdings, and the victim's next arrival is diverted. At 800 us
// both generators pause: both flows drain and wait on the slow path with
// their reserve credits. At 1 ms the hog's teardown frees the share.
func TestCoreShareGatedFlowKeepsCoreArmed(t *testing.T) {
	cfg := iosys.DefaultConfig()
	cfg.Cores = 4
	c := New(DefaultOptions())
	m := iosys.NewMachine(cfg, c)
	echo := func(id, queue int) iosys.FlowSpec {
		return iosys.FlowSpec{ID: id, Kind: iosys.CPUInvolved, PktSize: 512, MsgPkts: 1, Queue: queue,
			Cost: iosys.CostModel{PerPacket: 25 * sim.Nanosecond, ZeroCopy: true}}
	}
	hog := echo(1, 1)
	hog.MsgPkts = 1 << 20
	m.AddFlow(hog)
	victim := m.AddFlow(echo(2, 1))
	m.Eng.At(500*sim.Microsecond, func() {
		for id := 3; id <= 8; id++ {
			m.AddFlow(echo(id, 2+id%3))
		}
	})
	m.Eng.At(800*sim.Microsecond, func() { m.PauseFlow(1); m.PauseFlow(2) })
	m.Eng.At(sim.Millisecond, func() { m.RemoveFlow(1) })

	held := 0
	m.Eng.Every(0, 50*sim.Nanosecond, func() {
		for _, st := range c.flows {
			if st.mode != pkt.PathSlow || st.waitQ.Len() != 0 || st.sw.Len() != 0 || st.cred.Available == 0 ||
				!c.tenantBudgetOK(st) || c.coreBudgetOK(st) {
				continue
			}
			held++
			if !st.f.Core().Armed() {
				t.Fatalf("at %v: flow %d waits only on its core's share, but its core is disarmed: %s",
					m.Eng.Now(), st.f.ID, c.DebugFlow(st.f.ID))
			}
		}
	})
	m.Run(1100 * sim.Microsecond)
	if held == 0 {
		t.Fatalf("no flow was ever held on the slow path by its core's share alone (core rejects %d)", c.CoreRejects)
	}
	if st := victim.DP.(*flowState); st.mode != pkt.PathFast {
		t.Fatalf("victim still on the slow path after the share freed: %s", c.DebugFlow(2))
	}
}
