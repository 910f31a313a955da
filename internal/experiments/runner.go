// Parallel run driver: every experiment enumerates its independent
// measurement cells as run specs, executes them (optionally fanned
// across a worker pool, each run on its own sim.Engine), and renders
// from index-ordered result slots. Execution order therefore never
// influences the rendered tables — `-parallel 8` output is
// byte-identical to `-parallel 1` for a given seed — and multi-seed
// replication composes with the same machinery: cell × seed jobs are
// flattened into one batch.

package experiments

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"ceio/internal/runner"
)

// replicas returns one Config per seed replica (at least one): replica
// i simulates with Machine.Seed = base seed + i.
func (cfg Config) replicas() []Config {
	out := make([]Config, max(cfg.Seeds, 1))
	for i := range out {
		out[i] = cfg
		out[i].Machine.Seed = cfg.Machine.Seed + int64(i)
	}
	return out
}

// runCells executes fn once per (cell, seed replica) across the
// config's pool and returns the seed-ordered replica results for every
// cell. Each job builds its own machine and engine, so jobs share no
// state; each writes only its own slot, so collection is deterministic.
func runCells[T any](cfg Config, cells int, fn func(cell int, cfg Config) T) [][]T {
	reps := cfg.replicas()
	s := len(reps)
	flat := runner.Map(cfg.Pool, cells*s, func(i int) T {
		return fn(i/s, reps[i%s])
	})
	out := make([][]T, cells)
	for c := range out {
		out[c] = flat[c*s : (c+1)*s]
	}
	return out
}

// tableGroups builds several independent table groups, concurrently
// when a pool is configured (each group fans its leaf runs into the
// shared pool, so the global concurrency bound still holds), and
// returns the tables in call order.
func tableGroups(cfg Config, builders []func(Config) []Table) []Table {
	groups := make([][]Table, len(builders))
	if cfg.Pool == nil {
		for i, b := range builders {
			groups[i] = b(cfg)
		}
	} else {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			panicked any
		)
		for i, b := range builders {
			i, b := i, b
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if pv := recover(); pv != nil {
						mu.Lock()
						if panicked == nil {
							panicked = pv
						}
						mu.Unlock()
					}
				}()
				groups[i] = b(cfg)
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	var out []Table
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// Stat summarises one scalar metric across seed replicas.
type Stat struct {
	Min, Mean, Max float64
	N              int
}

// statOf reduces one metric of the replica results to min/mean/max.
func statOf[T any](reps []T, metric func(T) float64) Stat {
	s := Stat{N: len(reps)}
	var sum float64
	for i, r := range reps {
		v := metric(r)
		sum += v
		if i == 0 || v < s.Min {
			s.Min = v
		}
		if i == 0 || v > s.Max {
			s.Max = v
		}
	}
	if s.N > 0 {
		s.Mean = sum / float64(s.N)
	}
	return s
}

// fmtWith renders the stat with f. A single replica renders exactly as
// the serial single-seed run always did; multiple replicas render
// "min/mean/max".
func (s Stat) fmtWith(f func(float64) string) string {
	if s.N <= 1 {
		return f(s.Mean)
	}
	return f(s.Min) + "/" + f(s.Mean) + "/" + f(s.Max)
}

func (s Stat) f2() string  { return s.fmtWith(f2) }
func (s Stat) pct() string { return s.fmtWith(pct) }
func (s Stat) us() string  { return s.fmtWith(us) }

// count formats an integral counter (e.g. drops); fractional means
// across seeds fall back to one decimal place.
func (s Stat) count() string {
	return s.fmtWith(func(v float64) string {
		if v == math.Trunc(v) {
			return strconv.FormatInt(int64(v), 10)
		}
		return fmt.Sprintf("%.1f", v)
	})
}

// speedupStat renders s with a speedup factor relative to the
// baseline's mean.
func speedupStat(s, base Stat) string {
	if base.Mean <= 0 {
		return s.f2()
	}
	return fmt.Sprintf("%s (%.2fx)", s.f2(), s.Mean/base.Mean)
}
