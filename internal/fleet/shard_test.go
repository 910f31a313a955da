package fleet

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"

	"ceio/internal/faults"
	"ceio/internal/runner"
	"ceio/internal/sim"
)

// rackFingerprint runs a rack to completion and folds everything
// observable — the rack report, balancer stats, time-to-recover
// histogram, audit sweeps, fabric ledger, and every host's
// delivered/miss and fault-edge counters — into one comparable string.
// run advances the rack by d; nil means one RunFor(d).
func rackFingerprint(t *testing.T, cfg Config, flows int, d sim.Time, run func(f *Fleet, d sim.Time)) string {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, flows)
	audit := f.AttachAuditors(7 * sim.Microsecond)
	if run == nil {
		run = (*Fleet).RunFor
	}
	run(f, d)
	audit.Final()
	var buf bytes.Buffer
	f.WriteReport(&buf)
	fmt.Fprintf(&buf, "%+v ttr=%d/%d/%d/%d/%d\n", f.Stats,
		f.TTR.Count(), f.TTR.Min(), f.TTR.Max(), f.TTR.P50(), f.TTR.P99())
	st := f.SW.Stats()
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatUint(v, 10))
		}
	}
	put(st.InjectedMsgs, st.InjectedBytes, st.DeliveredMsgs, st.DeliveredBytes,
		st.DroppedMsgs, st.DroppedBytes, f.EventsProcessed(), audit.Count(), audit.Fleet.Checks)
	for _, h := range f.hosts {
		put(h.M.Delivered.Packets, h.M.Delivered.Bytes, h.M.LLC.Hits, h.M.LLC.Misses)
		if h.Inj != nil {
			fmt.Fprintf(&buf, " %+v", h.Inj.Stats)
		}
	}
	return buf.String()
}

// The tentpole determinism guarantee: a rack stepped by 8 pool workers
// is byte-identical to the same rack stepped serially — same reports,
// same balancer stats, same fabric ledger, same per-host counters —
// because every cross-shard frame is sequenced through the fabric at
// epoch barriers in canonical order.
func TestParallelSerialByteIdentical(t *testing.T) {
	mk := func(pool *runner.Pool) string {
		cfg := testConfig(6)
		cfg.Pool = pool
		cfg.Plans = []faults.Plan{
			{HostCrash: faults.OneShot(200*sim.Microsecond, 300*sim.Microsecond)},
			{PortFlap: faults.OneShot(400*sim.Microsecond, 100*sim.Microsecond), PortFlapPort: 1},
		}
		return rackFingerprint(t, cfg, 18, 1200*sim.Microsecond, nil)
	}
	pool := runner.NewPool(8)
	defer pool.Close()
	serial, parallel := mk(nil), mk(pool)
	if serial != parallel {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// A 64-host rack with a mid-run crash runs sharded, migrates the
// victim's flows, and closes with clean audits — the scaling smoke the
// CI fleet-64 job runs under -race.
func TestFleet64Smoke(t *testing.T) {
	cfg := testConfig(64)
	cfg.Plans = []faults.Plan{{HostCrash: faults.OneShot(100*sim.Microsecond, 250*sim.Microsecond)}}
	pool := runner.NewPool(8)
	defer pool.Close()
	cfg.Pool = pool
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, 128)
	audit := f.AttachAuditors(50 * sim.Microsecond)
	f.RunFor(600 * sim.Microsecond)
	if f.Stats.Crashes != 1 || f.Stats.Deaths != 1 {
		t.Fatalf("crashes=%d deaths=%d, want 1/1", f.Stats.Crashes, f.Stats.Deaths)
	}
	if f.Stats.Migrations == 0 {
		t.Fatal("no flow migrated off the crashed host")
	}
	for _, id := range f.flowIDs {
		if h := f.HostOf(id); h < 0 {
			t.Fatalf("flow %d unplaced after the dust settled", id)
		}
	}
	f.Quiesce()
	f.RunFor(200 * sim.Microsecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
	if st := f.SW.Stats(); st.InjectedMsgs == 0 {
		t.Fatal("no control traffic crossed the fabric")
	}
}

// pickAmong mirrors the balancer's rendezvous choice over an explicit
// live set (test-side reference for the property below).
func pickAmong(flow int, live []int) int {
	best, bestW := -1, uint64(0)
	for _, h := range live {
		if w := rendezvousWeight(uint64(flow), uint64(h)); best < 0 || w > bestW {
			best, bestW = h, w
		}
	}
	return best
}

// Rendezvous placement is minimally disruptive: removing one host
// re-homes exactly the flows that lived on it — every other flow keeps
// its placement (testing/quick across random rack sizes, flow IDs, and
// removed hosts).
func TestRendezvousMinimalDisruption(t *testing.T) {
	prop := func(hostSeed uint8, removeSeed uint8, flowIDs []uint16) bool {
		hosts := 2 + int(hostSeed)%63 // 2..64
		all := make([]int, hosts)
		for i := range all {
			all[i] = i
		}
		removed := int(removeSeed) % hosts
		rest := make([]int, 0, hosts-1)
		for _, h := range all {
			if h != removed {
				rest = append(rest, h)
			}
		}
		for _, fid := range flowIDs {
			before := pickAmong(int(fid), all)
			after := pickAmong(int(fid), rest)
			if before == removed {
				continue // this flow must move; any survivor is fine
			}
			if after != before {
				return false // a flow not on the removed host moved
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A flapped ToR port blackholes a healthy host's heartbeats: the
// balancer declares it dead from fabric loss alone (no crash ever
// happens), the drain leg of every victim's migration blocks on the
// unreachable holder — you cannot move flow state off a host you cannot
// talk to — and once the port heals the handshake resumes, re-placing
// every flow with clean audits.
func TestPortFlapDrivesFailover(t *testing.T) {
	cfg := testConfig(4)
	// Deadline must cover the dark window: drains cannot complete while
	// the holder's port is down.
	cfg.DrainDeadline = 400 * sim.Microsecond
	cfg.Plans = []faults.Plan{{
		PortFlap:     faults.OneShot(150*sim.Microsecond, 300*sim.Microsecond),
		PortFlapPort: 0,
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, 16)
	audit := f.AttachAuditors(20 * sim.Microsecond)
	victims := f.flowsOn(nil, 0)
	if len(victims) == 0 {
		t.Fatal("no flows placed on host 0; cannot exercise the flap")
	}

	f.RunFor(400 * sim.Microsecond)
	if f.Stats.Crashes != 0 {
		t.Fatalf("crashes=%d, want 0 (the host never died, only its port)", f.Stats.Crashes)
	}
	if f.Stats.Deaths != 1 {
		t.Fatalf("deaths=%d, want 1 (flap-blackholed heartbeats)", f.Stats.Deaths)
	}
	if f.SW.Stats().PortDownDrops == 0 {
		t.Fatal("no frame was dropped on the dark port")
	}
	for _, id := range victims {
		if h := f.HostOf(id); h != -1 {
			t.Fatalf("victim flow %d placed on host %d mid-flap, want blocked mid-drain (-1)", id, h)
		}
	}

	// Port heals at 450µs; probes resume, the host revives, the blocked
	// drains complete and every flow lands back at its rendezvous home.
	f.RunFor(600 * sim.Microsecond)
	if f.Stats.Revivals != 1 {
		t.Fatalf("revivals=%d, want 1 after the port healed", f.Stats.Revivals)
	}
	if f.Stats.Migrations == 0 {
		t.Fatal("no migration handshake completed after the flap cleared")
	}
	for _, id := range victims {
		if got, want := f.HostOf(id), f.pickHost(id).Index; got != want {
			t.Fatalf("flow %d on host %d after heal, rendezvous home is %d", id, got, want)
		}
	}
	f.Quiesce()
	f.RunFor(300 * sim.Microsecond)
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}

// A fabric capacity cut slows control-plane serialization without
// losing frames: probes still answer, no host is declared dead, and
// conservation holds.
func TestFabricCutDegradesWithoutFailover(t *testing.T) {
	cfg := testConfig(2)
	cfg.Plans = []faults.Plan{{
		FabricCut:       faults.OneShot(100*sim.Microsecond, 400*sim.Microsecond),
		FabricCutFactor: 0.05,
	}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addTestFlows(t, f, 6)
	audit := f.AttachAuditors(20 * sim.Microsecond)
	f.RunFor(800 * sim.Microsecond)
	if f.Stats.Deaths != 0 || f.Stats.Migrations != 0 {
		t.Fatalf("capacity cut triggered failover: deaths=%d migrations=%d",
			f.Stats.Deaths, f.Stats.Migrations)
	}
	if got := f.hosts[0].Inj.Stats.FabricCuts; got != 1 {
		t.Fatalf("fabric cut edges = %d, want 1", got)
	}
	audit.Final()
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}
