package fleet

import (
	"fmt"
	"io"

	"ceio/internal/stats"
)

// Rack-level aggregates: each host keeps its own meters and LLC
// counters; these fold them into the fleet-wide numbers the experiment
// tables and the ceio-sim -hosts report render (aggregate rate, rack
// miss ratio, merged latency percentiles — the CEIO-vs-baseline view of
// §6.2 taken across the whole rack).

// InvolvedMpps sums the CPU-involved delivery rate across hosts.
func (f *Fleet) InvolvedMpps() float64 {
	now := f.Eng.Now()
	sum := 0.0
	for _, h := range f.hosts {
		sum += h.M.InvolvedMeter.Mpps(now)
	}
	return sum
}

// TotalMpps sums the all-flows delivery rate across hosts.
func (f *Fleet) TotalMpps() float64 {
	now := f.Eng.Now()
	sum := 0.0
	for _, h := range f.hosts {
		sum += h.M.Delivered.Mpps(now)
	}
	return sum
}

// MissRate returns the rack-wide LLC miss ratio (total misses over total
// accesses, so busy hosts weigh in proportionally).
func (f *Fleet) MissRate() float64 {
	var hits, misses uint64
	for _, h := range f.hosts {
		hits += h.M.LLC.Hits
		misses += h.M.LLC.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

// MergedLatency merges every host's delivery-latency histogram, so rack
// percentiles are taken over the union of all hosts' samples.
func (f *Fleet) MergedLatency() *stats.Histogram {
	m := &stats.Histogram{}
	for _, h := range f.hosts {
		m.Merge(&h.M.Latency)
	}
	return m
}

// TimeToRecoverMax returns the slowest crash-to-re-steered time of the
// window in nanoseconds (0 when no failover migration completed).
func (f *Fleet) TimeToRecoverMax() int64 { return f.TTR.Max() }

// LiveHosts counts hosts the balancer currently considers live.
func (f *Fleet) LiveHosts() int {
	n := 0
	for _, h := range f.hosts {
		if h.live {
			n++
		}
	}
	return n
}

// WriteReport renders the human-readable rack report: the fleet summary
// line, one line per host, and the failover counters.
func (f *Fleet) WriteReport(w io.Writer) {
	now := f.Eng.Now()
	lat := f.MergedLatency()
	fmt.Fprintf(w, "[fleet %s] hosts=%d live=%d t=%v | %.2f Mpps total (%.2f involved), miss=%.1f%%, p50=%.2fµs p99=%.2fµs\n",
		f.Cfg.Method, len(f.hosts), f.LiveHosts(), now,
		f.TotalMpps(), f.InvolvedMpps(), f.MissRate()*100,
		float64(lat.P50())/1e3, float64(lat.P99())/1e3)
	for _, h := range f.hosts {
		state := "live"
		switch {
		case h.down:
			state = "down"
		case !h.live:
			state = "probation"
		}
		fmt.Fprintf(w, "  host %d: %-9s flows=%d  %.2f Mpps  miss=%.1f%%\n",
			h.Index, state, len(f.PlacedFlowIDs(h.Index)),
			h.M.Delivered.Mpps(now), h.M.LLC.MissRate()*100)
	}
	s := f.Stats
	fmt.Fprintf(w, "  failover: crashes=%d recovers=%d deaths=%d revivals=%d migrations=%d retries=%d rebalances=%d stranded=%d",
		s.Crashes, s.Recovers, s.Deaths, s.Revivals, s.Migrations, s.MigrationRetries, s.Rebalances, s.Stranded)
	if f.TTR.Count() > 0 {
		fmt.Fprintf(w, " ttr(max)=%.2fµs", float64(f.TTR.Max())/1e3)
	}
	fmt.Fprintln(w)
	fi, fd, fx, fq := f.FabricFrames()
	_, db, _, _ := f.FabricBytes()
	sw := f.SW.Stats()
	fmt.Fprintf(w, "  fabric: frames=%d delivered=%d dropped=%d (tail=%d port-down=%d) queued=%d bytes=%.2fMB\n",
		fi, fd, fx, sw.TailDrops, sw.PortDownDrops, fq, float64(db)/(1<<20))
}
