// Package workload defines the benchmark applications of the paper's
// evaluation (§6.1) as flow specifications over the simulated machine —
// an eRPC-based key-value store, the LineFS distributed file system, the
// dperf echo workload, and the VxLAN synthetic — plus the dynamic
// scenarios (flow-distribution churn and network bursts) of §2.3/§6.2.
package workload

import (
	"fmt"
	"strings"

	"ceio/internal/baseline"
	"ceio/internal/core"
	"ceio/internal/iosys"
	"ceio/internal/rdca"
	"ceio/internal/sim"
)

// Method names the I/O architecture under test.
type Method string

// The methods compared throughout the evaluation.
const (
	MethodBaseline     Method = "Baseline"
	MethodHostCC       Method = "HostCC"
	MethodShRing       Method = "ShRing"
	MethodCEIO         Method = "CEIO"
	MethodCEIONoOpt    Method = "CEIO w/o optimization" // Table 4 ablation
	MethodCEIOSlowPath Method = "CEIO slow path"        // Fig. 11 forced slow
	// MethodRDCA is the receiver-driven cache-residency contender
	// (internal/rdca): bounded in-flight window plus aggressive buffer
	// recycling instead of CEIO's credit-gated elastic buffering.
	MethodRDCA Method = "RDCA"
)

// AllMethods is the standard comparison order of the figures.
var AllMethods = []Method{MethodBaseline, MethodHostCC, MethodShRing, MethodCEIO}

// registry is the one table of architectures the simulator can build,
// in declaration order. Every outside-input boundary (CLI flags, JSON
// scenarios, the root facade, fleet configs) resolves names through
// ParseMethod, so a name is accepted exactly when it is listed here.
var registry = []struct {
	method Method
	build  func() iosys.Datapath
}{
	{MethodBaseline, func() iosys.Datapath { return baseline.NewLegacy() }},
	{MethodHostCC, func() iosys.Datapath { return baseline.NewHostCC(baseline.DefaultHostCCConfig()) }},
	{MethodShRing, func() iosys.Datapath { return baseline.NewShRing(baseline.DefaultShRingConfig()) }},
	{MethodCEIO, func() iosys.Datapath { return core.New(core.DefaultOptions()) }},
	{MethodCEIONoOpt, func() iosys.Datapath {
		o := core.DefaultOptions()
		o.CreditRealloc = false
		o.AsyncDrain = false
		return core.New(o)
	}},
	{MethodCEIOSlowPath, func() iosys.Datapath {
		o := core.DefaultOptions()
		o.ForceSlowPath = true
		return core.New(o)
	}},
	{MethodRDCA, func() iosys.Datapath { return rdca.New(rdca.DefaultOptions()) }},
}

// MethodList renders the registered names for help and error text:
// "Baseline | HostCC | ...".
func MethodList() string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = string(r.method)
	}
	return strings.Join(names, " | ")
}

// ParseMethod resolves an architecture name from outside input. Names
// match exactly (case included); the error lists the registered names.
func ParseMethod(name string) (Method, error) {
	for _, r := range registry {
		if string(r.method) == name {
			return r.method, nil
		}
	}
	return "", fmt.Errorf("unknown architecture %q (registered: %s)", name, MethodList())
}

// NewDatapath constructs the datapath implementation for a method. An
// unregistered method is a programming error and panics; names from
// outside input go through ParseMethod first.
func NewDatapath(m Method) iosys.Datapath {
	for _, r := range registry {
		if r.method == m {
			return r.build()
		}
	}
	panic(fmt.Sprintf("workload: unknown method %q", m))
}

// Transport distinguishes the eRPC backends of §6.1: the DPDK interface
// and the RDMA (verbs) interface. The RDMA datapath pays slightly more
// per-packet driver work on the host (Table 2's eRPC(RDMA) rows sit above
// eRPC(DPDK)); the data movement is identical.
type Transport int

// eRPC backends.
const (
	DPDK Transport = iota
	RDMA
)

func (t Transport) String() string {
	if t == RDMA {
		return "RDMA"
	}
	return "DPDK"
}

// ERPCKV returns a flow spec for the eRPC key-value workload: 1:1
// get/put with a 1:4 key-value ratio (16B key, 64B value -> 144B
// packets by default), zero-copy packet handover, and per-request
// processing (hash lookup plus value copy) of ~150ns.
func ERPCKV(id, pktSize int, tr Transport) iosys.FlowSpec {
	cost := iosys.CostModel{PerPacket: 150 * sim.Nanosecond, ZeroCopy: true}
	if tr == RDMA {
		cost.PerPacket += 20 * sim.Nanosecond // verbs post/poll overhead
	}
	if pktSize <= 0 {
		pktSize = 144
	}
	return iosys.FlowSpec{ID: id, Kind: iosys.CPUInvolved, PktSize: pktSize, MsgPkts: 1, Cost: cost}
}

// LineFS returns a flow spec for the LineFS file-transfer workload: a
// CPU-bypass (RDMA) flow writing file chunks; the server-side
// replication and logging run on the SmartNIC, so the host CPU is not
// involved. chunkPkts is the number of packets per write chunk (the
// RDMA write-with-immediate batch).
func LineFS(id, pktSize, chunkPkts int) iosys.FlowSpec {
	if pktSize <= 0 {
		pktSize = 1024
	}
	if chunkPkts <= 0 {
		chunkPkts = 4096
	}
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUBypass, PktSize: pktSize, MsgPkts: chunkPkts,
		// Replication plus logging: two additional memory passes over
		// every received chunk (the server-side work of §6.1).
		PostPasses: 2,
	}
}

// Echo returns the dperf echo workload: the server touches the message
// and replies with a 64B acknowledgement (reply cost folded into the
// per-packet processing). Used for the peak data-path measurements
// (Fig. 11, Fig. 12, Table 2, Table 3). A zero msgSize selects 512B
// messages.
func Echo(id, msgSize int) iosys.FlowSpec {
	if msgSize <= 0 {
		msgSize = 512
	}
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: msgSize, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 25 * sim.Nanosecond, ZeroCopy: true},
	}
}

// VxLAN returns the synthetic low-memory-pressure workload of §6.3:
// 64B packets with VxLAN decapsulation (~60ns of header processing).
func VxLAN(id int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: 64, MsgPkts: 1,
		Cost: iosys.CostModel{PerPacket: 60 * sim.Nanosecond, ZeroCopy: true},
	}
}

// LineFSCopy returns a CPU-involved variant of the DFS receive path that
// memcpy's each packet into an application buffer (the non-zero-copy
// configuration discussed in §6.4, with ~10% residual app-buffer
// misses).
func LineFSCopy(id, pktSize int) iosys.FlowSpec {
	return iosys.FlowSpec{
		ID: id, Kind: iosys.CPUInvolved, PktSize: pktSize, MsgPkts: 16,
		Cost: iosys.CostModel{
			PerPacket:      60 * sim.Nanosecond,
			ZeroCopy:       false,
			CopyBandwidth:  12e9,
			AppBufMissRate: 0.10,
		},
	}
}
