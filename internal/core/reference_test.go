package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ceio/internal/iosys"
)

// refCreditController is the reference model the handle-based controller
// is checked against: Algorithm 1 over accounts found by flow ID in a Go
// map, with a separate insertion-order list. Flow IDs are never reused in
// the differential driver, which is the one place the two controllers
// are meant to differ: here a re-added ID would reach the old account's
// IOUs.
type refCreditController struct {
	total, pool int
	flows       map[int]*refFlowCredits
	order       []int

	Consumed, Rejected, Released, DebtsPaid, Reallocs, Reclaimed uint64
}

type refFlowCredits struct {
	ID, Available, InUse int
	Owes                 map[int]int // creditor ID -> credits owed
}

func newRefCreditController(total int) *refCreditController {
	return &refCreditController{total: total, pool: total, flows: make(map[int]*refFlowCredits)}
}

func (c *refCreditController) AddFlows(ids ...int) {
	m := len(ids)
	n := len(c.order)
	newFlows := make([]*refFlowCredits, 0, m)
	for _, id := range ids {
		if _, dup := c.flows[id]; dup {
			panic(fmt.Sprintf("ref: duplicate flow %d", id))
		}
		f := &refFlowCredits{ID: id}
		c.flows[id] = f
		c.order = append(c.order, id)
		newFlows = append(newFlows, f)
	}
	existing := c.order[:n]
	cflow := c.total / len(c.order)
	need := make([]int, m)
	totalNeed := 0
	for k := range need {
		need[k] = cflow
		totalNeed += cflow
	}
	fill := func(amount int) int {
		given := 0
		for k := range need {
			if amount == 0 {
				break
			}
			g := min(need[k], amount)
			newFlows[k].Available += g
			need[k] -= g
			amount -= g
			given += g
		}
		return given
	}
	c.pool -= fill(min(c.pool, totalNeed))
	remaining := 0
	for _, v := range need {
		remaining += v
	}
	if remaining == 0 || len(existing) == 0 {
		return
	}
	quota := remaining / len(existing)
	extra := remaining % len(existing)
	for idx, id := range existing {
		q := quota
		if idx < extra {
			q++
		}
		if q == 0 {
			continue
		}
		e := c.flows[id]
		give := min(e.Available, q)
		e.Available -= give
		fill(give)
		if deficit := q - give; deficit > 0 {
			if e.Owes == nil {
				e.Owes = make(map[int]int)
			}
			for k := range need {
				if deficit == 0 {
					break
				}
				if need[k] == 0 {
					continue
				}
				d := min(need[k], deficit)
				e.Owes[newFlows[k].ID] += d
				need[k] -= d
				deficit -= d
			}
			c.Reallocs++
		}
	}
}

func (c *refCreditController) RemoveFlow(id int) {
	f, ok := c.flows[id]
	if !ok {
		return
	}
	c.pool += f.Available + f.InUse
	c.Reclaimed += uint64(f.InUse)
	f.Available, f.InUse = 0, 0
	delete(c.flows, id)
	c.order = slices.DeleteFunc(c.order, func(v int) bool { return v == id })
}

func (c *refCreditController) Consume(id int) bool {
	f := c.flows[id]
	if f == nil || f.Available == 0 {
		c.Rejected++
		return false
	}
	f.Available--
	f.InUse++
	c.Consumed++
	return true
}

func (c *refCreditController) Release(id, n int) {
	f := c.flows[id]
	if n <= 0 || f == nil {
		return
	}
	if n > f.InUse {
		panic(fmt.Sprintf("ref: flow %d releasing %d credits with only %d in use", id, n, f.InUse))
	}
	f.InUse -= n
	c.Released += uint64(n)
	f.Available += c.settle(f, n)
}

func (c *refCreditController) settle(f *refFlowCredits, remaining int) int {
	creditors := slices.Collect(maps.Keys(f.Owes))
	sort.Ints(creditors)
	for _, cid := range creditors {
		if remaining == 0 {
			break
		}
		pay := min(f.Owes[cid], remaining)
		if cr := c.flows[cid]; cr != nil {
			cr.Available += pay
		} else {
			c.pool += pay
		}
		remaining -= pay
		c.DebtsPaid += uint64(pay)
		if f.Owes[cid] -= pay; f.Owes[cid] == 0 {
			delete(f.Owes, cid)
		}
	}
	return remaining
}

func (c *refCreditController) ReclaimInUse(id, n int) int {
	f := c.flows[id]
	if f == nil || n <= 0 {
		return 0
	}
	r := min(f.InUse, n)
	if r == 0 {
		return 0
	}
	f.InUse -= r
	c.Reclaimed += uint64(r)
	f.Available += c.settle(f, r)
	return r
}

func (c *refCreditController) Recycle(id int) int {
	f := c.flows[id]
	if f == nil {
		return 0
	}
	n := f.Available
	f.Available = 0
	c.pool += n
	return n
}

func (c *refCreditController) Take(id, n int) int {
	f := c.flows[id]
	if f == nil || n <= 0 {
		return 0
	}
	t := min(f.Available, n)
	f.Available -= t
	c.pool += t
	return t
}

func (c *refCreditController) Grant(id, max int) int {
	f := c.flows[id]
	if f == nil || max <= 0 {
		return 0
	}
	g := min(c.pool, max)
	c.pool -= g
	f.Available += g
	return g
}

// diffCredits compares the controller with the reference: pool, the live
// accounts in order with their balances and IOUs (matched by creditor
// ID), every retired account reading zero, and every counter.
func diffCredits(c *CreditController, r *refCreditController, all []*FlowCredits) error {
	if c.Pool() != r.pool || c.FairShare() != refFairShare(r) {
		return fmt.Errorf("pool/fair share = %d/%d, reference %d/%d", c.Pool(), c.FairShare(), r.pool, refFairShare(r))
	}
	ids := make([]int, len(c.flows))
	for i, f := range c.flows {
		ids[i] = f.ID
	}
	if !slices.Equal(ids, r.order) {
		return fmt.Errorf("live accounts %v, reference %v", ids, r.order)
	}
	for _, f := range all {
		rf := r.flows[f.ID]
		if rf == nil {
			if !f.retired || f.Available != 0 || f.InUse != 0 || f.InDebt() {
				return fmt.Errorf("removed flow %d: retired=%v avail=%d inuse=%d owes=%d",
					f.ID, f.retired, f.Available, f.InUse, len(f.Owes))
			}
			continue
		}
		owes := make(map[int]int, len(f.Owes))
		for cr, n := range f.Owes {
			owes[cr.ID] = n
		}
		if f.retired || f.Available != rf.Available || f.InUse != rf.InUse || !maps.Equal(owes, rf.Owes) {
			return fmt.Errorf("flow %d: retired=%v avail=%d inuse=%d owes=%v, reference avail=%d inuse=%d owes=%v",
				f.ID, f.retired, f.Available, f.InUse, owes, rf.Available, rf.InUse, rf.Owes)
		}
	}
	got := [6]uint64{c.Consumed, c.Rejected, c.Released, c.DebtsPaid, c.Reallocs, c.Reclaimed}
	want := [6]uint64{r.Consumed, r.Rejected, r.Released, r.DebtsPaid, r.Reallocs, r.Reclaimed}
	if got != want {
		return fmt.Errorf("counters consumed/rejected/released/debts/reallocs/reclaimed = %v, reference %v", got, want)
	}
	if err := c.CheckInvariant(); err != nil {
		return err
	}
	return c.CheckConservation()
}

func refFairShare(r *refCreditController) int {
	if len(r.order) == 0 {
		return r.total
	}
	return r.total / len(r.order)
}

// runCreditDiff decodes data as a stream of 3-byte operations and applies
// each to both controllers, comparing them after every one. The first
// byte sizes C_total. An operation's x byte picks its account: among the
// live ones when its top bit is clear, among every account ever created
// (so retired ones too) when it is set. Every account is bound to a flow
// as CEIO binds it, and each operation must ring exactly the flows of the
// accounts it refilled from zero (checkRings).
func runCreditDiff(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	total := 16 + 32*int(data[0])
	data = data[1:]
	c, r := NewCreditController(total), newRefCreditController(total)
	var rang []*iosys.Flow
	c.doorbell = func(f *iosys.Flow) { rang = append(rang, f) }
	var all []*FlowCredits
	var availBefore []int // each account's Available before the operation
	nextID := 1
	pick := func(x byte) *FlowCredits {
		if x&0x80 != 0 && len(all) > 0 {
			return all[int(x&0x7f)%len(all)]
		}
		if len(c.flows) == 0 {
			return nil
		}
		return c.flows[int(x)%len(c.flows)]
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i]%9, data[i+1], data[i+2]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %d (kind %d x %d y %d): %s", i/3, op, x, y, fmt.Sprintf(format, args...))
		}
		rang, availBefore = rang[:0], availBefore[:0]
		for _, f := range all {
			availBefore = append(availBefore, f.Available)
		}
		if op == 0 {
			if len(c.flows) >= 32 {
				continue
			}
			ids := make([]int, 1+int(x)%4)
			for k := range ids {
				ids[k] = nextID
				nextID++
			}
			accts := c.AddFlows(ids...)
			r.AddFlows(ids...)
			for k, f := range accts {
				if f.ID != ids[k] {
					fail("AddFlows returned account %d for ID %d", f.ID, ids[k])
				}
				f.flow = &iosys.Flow{FlowSpec: iosys.FlowSpec{ID: f.ID}}
			}
			all = append(all, accts...)
		} else {
			f := pick(x)
			if f == nil {
				continue
			}
			var got, want int
			switch op {
			case 1:
				c.RemoveFlow(f)
				r.RemoveFlow(f.ID)
			case 2, 3:
				got, want = b2i(c.Consume(f)), b2i(r.Consume(f.ID))
			case 4:
				n := 1 + int(y)%4 // a straggler on a retired account
				if !f.retired {
					if f.InUse == 0 {
						continue
					}
					n = 1 + int(y)%f.InUse
				}
				c.Release(f, n)
				r.Release(f.ID, n)
			case 5:
				got, want = c.ReclaimInUse(f, int(y)%8), r.ReclaimInUse(f.ID, int(y)%8)
			case 6:
				got, want = c.Recycle(f), r.Recycle(f.ID)
			case 7:
				got, want = c.Take(f, int(y)), r.Take(f.ID, int(y))
			case 8:
				got, want = c.Grant(f, int(y)), r.Grant(f.ID, int(y))
			}
			if got != want {
				fail("flow %d returned %d, reference %d", f.ID, got, want)
			}
		}
		if err := diffCredits(c, r, all); err != nil {
			fail("%v", err)
		}
		if err := checkRings(all[:len(availBefore)], availBefore, rang); err != nil {
			fail("%v", err)
		}
	}
}

// checkRings compares the doorbells one operation rang with the accounts
// it refilled: each account that existed before the operation, is still
// live and rose from zero available credits rings its own flow once, and
// nothing else rings. A retired account holds no flow.
func checkRings(accts []*FlowCredits, availBefore []int, rang []*iosys.Flow) error {
	want := 0
	for k, f := range accts {
		if f.retired {
			if f.flow != nil {
				return fmt.Errorf("retired flow %d still holds its machine flow", f.ID)
			}
			continue
		}
		if availBefore[k] != 0 || f.Available == 0 {
			continue
		}
		want++
		if n := countRings(rang, f.flow); n != 1 {
			return fmt.Errorf("flow %d refilled from 0 to %d rang %d times, want 1", f.ID, f.Available, n)
		}
	}
	if len(rang) != want {
		return fmt.Errorf("%d doorbells rang, %d accounts refilled from 0", len(rang), want)
	}
	return nil
}

func countRings(rang []*iosys.Flow, f *iosys.Flow) int {
	n := 0
	for _, g := range rang {
		if g == f {
			n++
		}
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCreditControllerMatchesReference runs long random operation streams
// through the differential driver, from tight to roomy credit totals.
func TestCreditControllerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+3*4000)
		rng.Read(data)
		data[0] = byte(seed * 4)
		runCreditDiff(t, data)
	}
}

// FuzzCreditController feeds arbitrary byte strings to the differential
// driver.
func FuzzCreditController(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x04, 0x00, 0x05})
	f.Add([]byte{0x01, 0x00, 0x03, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x80, 0x00, 0x04, 0x80, 0x03})
	f.Add([]byte("add-consume-release-remove-grant-take-recycle-reclaim"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runCreditDiff(t, data)
	})
}
