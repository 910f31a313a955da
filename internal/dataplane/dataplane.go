// Package dataplane generalises per-packet CPU work from a single
// scalar cost (CostModel.PerPacket) into a validated, ordered chain of
// processing modules — NAT64, ACL lookup, VxLAN decapsulation, a
// stateful firewall, 5G UPF GTP handling — mirroring the modules/
// architecture of production software dataplanes (yanet2, VPP).
//
// The point of modelling modules rather than a flat nanosecond count is
// that real dataplane stages carry *state*: NAT translation tables,
// firewall connection entries, UPF session contexts. That state lives
// in the same LLC the DDIO region occupies, so a heavy pipeline does
// not just burn cycles — it evicts in-flight I/O buffers and inflates
// the I/O miss rate (the 5GC²ache and IOCA observations). Each module
// therefore declares both a per-packet cycle cost and a cache working
// set; every packet's state touches are charged against the machine's
// LLC model line by line, with per-module hit/miss accounting kept
// separate from the I/O-path counters the paper's miss-ratio figures
// are built on.
//
// Determinism: the lines a packet touches are a pure hash of (flow,
// sequence, module, touch index) — no engine RNG is consumed — so runs
// are bit-identical at any -parallel level, and the hot path performs
// no allocation (state lines reuse the LLC's recycled arena nodes).
package dataplane

import (
	"fmt"
	"sort"

	"ceio/internal/cache"
	"ceio/internal/sim"
)

// LineBytes is the cache-line granularity module state is charged at.
const LineBytes = 64

// Spec declares one module type: its name, the CPU cycles it spends per
// packet (excluding memory stalls, which the cache model charges), and
// the state working set it walks.
type Spec struct {
	Name string
	// Cycles is the per-packet compute cost of the module's logic
	// (parsing, hashing, header rewrite), paid on every packet.
	Cycles sim.Time
	// FootprintBytes is the fixed state the module consults regardless
	// of flow count (rule tables, tries, translation pools).
	FootprintBytes int64
	// PerFlowBytes grows the working set per attached flow (connection
	// entries, session contexts).
	PerFlowBytes int64
	// Touches is the number of distinct state lines read per packet
	// (table lookups, trie levels, session chases). Each touch is an
	// LLC hit or a DRAM refill depending on residency.
	Touches int
	// Help is a one-line description for docs and CLI listings.
	Help string
}

// catalog is the built-in module set. Costs and footprints follow the
// per-packet cycle and LLC-pressure numbers the 5GC²ache and NFV
// literature report for each stage; see DESIGN.md "Dataplane pipeline".
var catalog = []Spec{
	{
		Name: "nat64", Cycles: 85 * sim.Nanosecond,
		FootprintBytes: 512 << 10, PerFlowBytes: 64, Touches: 2,
		Help: "stateful NAT64 translation: binding-table lookup plus header rewrite",
	},
	{
		Name: "acl-linear", Cycles: 120 * sim.Nanosecond,
		FootprintBytes: 256 << 10, PerFlowBytes: 0, Touches: 4,
		Help: "linear-scan ACL: cheap table, many rule lines walked per packet",
	},
	{
		Name: "acl-trie", Cycles: 45 * sim.Nanosecond,
		FootprintBytes: 1 << 20, PerFlowBytes: 0, Touches: 3,
		Help: "trie-compiled ACL: fewer cycles per packet, 4x the resident table",
	},
	{
		Name: "vxlan", Cycles: 60 * sim.Nanosecond,
		FootprintBytes: 16 << 10, PerFlowBytes: 0, Touches: 1,
		Help: "VxLAN decapsulation: VNI table lookup and outer-header strip",
	},
	{
		Name: "firewall", Cycles: 70 * sim.Nanosecond,
		FootprintBytes: 128 << 10, PerFlowBytes: 256, Touches: 2,
		Help: "stateful firewall: per-flow connection tracking entries",
	},
	{
		Name: "upf", Cycles: 150 * sim.Nanosecond,
		FootprintBytes: 2 << 20, PerFlowBytes: 128, Touches: 3,
		Help: "5G UPF GTP encap/decap: PDR/FAR session state, the heaviest table",
	},
}

// Specs returns the built-in module catalog in registry order.
func Specs() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// Names returns the valid module names, sorted.
func Names() []string {
	out := make([]string, len(catalog))
	for i, s := range catalog {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// Lookup finds a module spec by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ValidateChain checks a pipeline declaration: every name must be a
// known module and appear at most once (a chain is a set of stages in
// order, not a loop). An empty chain is valid — it means "no pipeline"
// and callers keep the scalar cost path.
func ValidateChain(names []string) error {
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if _, ok := Lookup(n); !ok {
			return fmt.Errorf("dataplane: chain[%d]: unknown module %q (have %v)", i, n, Names())
		}
		if seen[n] {
			return fmt.Errorf("dataplane: chain[%d]: module %q appears twice", i, n)
		}
		seen[n] = true
	}
	return nil
}

// Module is one instantiated module on one machine. Modules are shared
// by every flow whose chain names them — state tables are per-machine,
// like the single NAT table of a real middlebox — and sized by the
// number of attached flows.
type Module struct {
	Spec
	idx   int
	flows int
	lines int // current working set in cache lines

	// Window counters, reset by ResetWindow (Resident is a live gauge
	// and survives resets).
	Packets  uint64
	Busy     sim.Time // cycles + memory stalls charged to this module
	Hits     uint64   // state touches served from the LLC
	Misses   uint64   // state touches refilled from DRAM
	Resident int64    // state bytes currently resident in the LLC
}

// Flows returns the number of flows currently attached to this module.
func (mod *Module) Flows() int { return mod.flows }

// WorkingSetBytes is the module's current state size: the fixed
// footprint plus the per-flow growth.
func (mod *Module) WorkingSetBytes() int64 {
	return int64(mod.lines) * LineBytes
}

// MissRate returns state misses/(hits+misses) for the current window.
func (mod *Module) MissRate() float64 {
	t := mod.Hits + mod.Misses
	if t == 0 {
		return 0
	}
	return float64(mod.Misses) / float64(t)
}

// resize recomputes the working set after a flow attach/detach. Lines
// dropped from a shrinking set simply age out of the LLC; they are
// never touched again.
func (mod *Module) resize() {
	ws := mod.FootprintBytes + mod.PerFlowBytes*int64(mod.flows)
	mod.lines = int((ws + LineBytes - 1) / LineBytes)
	if mod.lines < 1 {
		mod.lines = 1
	}
}

// Engine hosts the instantiated modules of one machine and charges
// pipelined packets against the machine's LLC and DRAM models. Modules
// are instantiated on first use by a flow's chain and live for the
// machine's lifetime.
type Engine struct {
	llc    *cache.LLC
	mem    *cache.Memory
	hitLat sim.Time
	// sink receives the I/O buffers and state lines a state refill
	// evicts (the machine's writebackEvicted, which charges DRAM
	// writebacks for dirty I/O buffers and routes state lines back to
	// StateEvicted).
	sink func([]cache.Evicted)

	mods   []*Module
	byName map[string]*Module

	// TotalBusy accumulates every PacketCost return value; the
	// FuzzPipeline conservation property checks it always equals the
	// per-module Busy sum.
	TotalBusy sim.Time
}

// NewEngine builds a pipeline engine over a machine's memory hierarchy.
func NewEngine(llc *cache.LLC, mem *cache.Memory, hitLatency sim.Time, sink func([]cache.Evicted)) *Engine {
	return &Engine{llc: llc, mem: mem, hitLat: hitLatency, sink: sink, byName: make(map[string]*Module)}
}

// Modules returns the instantiated modules in instantiation order.
func (e *Engine) Modules() []*Module { return e.mods }

// Resolve validates a chain and returns its runtime modules,
// instantiating any the machine has not seen yet (returned in created
// so the caller can register their telemetry) and attaching one flow to
// every stage.
func (e *Engine) Resolve(names []string) (chain, created []*Module, err error) {
	if err := ValidateChain(names); err != nil {
		return nil, nil, err
	}
	chain = make([]*Module, len(names))
	for i, n := range names {
		mod, ok := e.byName[n]
		if !ok {
			spec, _ := Lookup(n)
			mod = &Module{Spec: spec, idx: len(e.mods)}
			e.mods = append(e.mods, mod)
			e.byName[n] = mod
			created = append(created, mod)
		}
		mod.flows++
		mod.resize()
		chain[i] = mod
	}
	return chain, created, nil
}

// FlowDetached releases a removed flow's attachment to its chain,
// shrinking per-flow working sets.
func (e *Engine) FlowDetached(chain []*Module) {
	for _, mod := range chain {
		if mod.flows > 0 {
			mod.flows--
		}
		mod.resize()
	}
}

// splitmix64 is the SplitMix64 finalizer: a stateless bijective mixer,
// so touch patterns are deterministic without consuming engine RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PacketCost charges one packet's trip through chain: every module's
// cycle cost plus one LLC access per state touch — a hit costs the LLC
// load latency, a miss a DRAM refill that inserts the line into the
// flow's partition, evicting LRU victims exactly like a DDIO write
// (which is how heavy pipelines flush I/O buffers and inflate the I/O
// miss rate). The returned time is the flow's application service time
// for the packet, replacing CostModel.PerPacket.
func (e *Engine) PacketCost(chain []*Module, part, flowID int, seq uint64) sim.Time {
	var total sim.Time
	for _, mod := range chain {
		mod.Packets++
		c := mod.Cycles
		base := uint64(flowID)<<24 ^ seq<<8 ^ uint64(mod.idx)
		for t := 0; t < mod.Touches; t++ {
			line := int(splitmix64(base+uint64(t)) % uint64(mod.lines))
			id := cache.StateLineID(mod.idx, line)
			hit, filled, evicted := e.llc.TouchState(part, id, LineBytes)
			if hit {
				mod.Hits++
				c += e.hitLat
			} else {
				mod.Misses++
				c += e.mem.AccessLatency(LineBytes)
				if filled {
					mod.Resident += LineBytes
				}
				if len(evicted) > 0 && e.sink != nil {
					e.sink(evicted)
				}
			}
		}
		mod.Busy += c
		total += c
	}
	e.TotalBusy += total
	return total
}

// StateEvicted records the eviction of one module state line (capacity
// pressure or tenant way movement), keeping the residency gauges true.
func (e *Engine) StateEvicted(id cache.BufID) {
	if idx := cache.StateModule(id); idx < len(e.mods) {
		e.mods[idx].Resident -= LineBytes
	}
}

// ResidentBytes sums the state bytes of every module currently in the
// LLC.
func (e *Engine) ResidentBytes() int64 {
	var sum int64
	for _, mod := range e.mods {
		sum += mod.Resident
	}
	return sum
}

// MissRate is the window state miss ratio across every module.
func (e *Engine) MissRate() float64 {
	var hits, misses uint64
	for _, mod := range e.mods {
		hits += mod.Hits
		misses += mod.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

// ResetWindow zeroes the window counters (Resident, a live gauge, is
// kept), mirroring LLC.ResetStats for steady-state measurement windows.
func (e *Engine) ResetWindow() {
	e.TotalBusy = 0
	for _, mod := range e.mods {
		mod.Packets, mod.Busy, mod.Hits, mod.Misses = 0, 0, 0, 0
	}
}
