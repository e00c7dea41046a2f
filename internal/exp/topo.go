package exp

import (
	"f4t/internal/core"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/wire"
)

// topoNode is node i of a scenario topology: addresses in 10.1.0.0/16
// (never colliding with the two-node testbed's 10.0.0.x), island i —
// routers take the islands after the last node, so a sharded fabric
// parallelizes hosts against the switches too — and a LinkGbps access
// link of the given propagation delay into router.
func topoNode(i, router int, propNS int64) netsim.NodeSpec {
	return netsim.NodeSpec{
		Addr:   wire.MakeAddr(10, 1, byte((i+1)>>8), byte((i+1)&0xff)),
		MAC:    wire.MAC{2, 0, 1, 0, byte((i + 1) >> 8), byte((i + 1) & 0xff)},
		Island: i, RouterIdx: router, Gbps: LinkGbps, PropNS: propNS,
	}
}

// F4TTopo is n F4T hosts on a routed topology — the star, dumbbell and
// WAN scenario rigs. Every flow crosses the sender's uplink pipe and
// then router output ports (trunks, the receiver's downlink), where the
// AQM discipline acts. Thread.Dial's remoteIdx counts the other nodes
// in node order (core.Peers), so from any sender 0 is node 0.
type F4TTopo struct {
	*core.Rig
	Topo *netsim.Topology
}

// buildTopo puts an engine and its library machine on every node of
// topo via core.Build. mutate adjusts the configuration shared by all
// nodes; node i's random streams derive from that (mutable) base seed
// plus seed0+101·i, so a differential battery can vary the whole rig's
// randomness by setting Seed in mutate. node (optional) makes the
// per-node adjustments; nodes default to one channel.
func buildTopo(f sim.Fabric, topo *netsim.Topology, costs cpu.Costs, mutate func(*engine.Config), seed0 uint64, node func(i int, cfg *engine.Config)) *F4TTopo {
	base := engine.DefaultConfig()
	if mutate != nil {
		mutate(&base)
	}
	r := core.Build(f, topo, func(i int) engine.Config {
		cfg := base
		cfg.Seed = base.Seed + seed0 + uint64(i*101)
		cfg.Channels = 1
		if node != nil {
			node(i, &cfg)
		}
		return cfg
	}, func(int) cpu.Costs { return costs })
	return &F4TTopo{Rig: r, Topo: topo}
}

// NewF4TStarOn builds n F4T hosts around one output-queued switch — the
// incast, fan-in and mixed-traffic shape. cores[i] sets node i's
// channel/thread count; aqm is applied to every switch output port.
func NewF4TStarOn(f sim.Fabric, cores []int, costs cpu.Costs, aqm netsim.AQMConfig, mutate func(*engine.Config)) *F4TTopo {
	specs := make([]netsim.NodeSpec, len(cores))
	for i := range specs {
		specs[i] = topoNode(i, 0, LinkPropNS)
	}
	topo := netsim.NewStarOn(f, len(cores), specs, aqm, 4321)
	return buildTopo(f, topo, costs, mutate, 101, func(i int, cfg *engine.Config) { cfg.Channels = cores[i] })
}

// NewF4TDumbbellOn builds the heterogeneous-CC rig: one receiver on
// router 0, a sender per entry of algs on router 1, and the shared
// inter-router trunk (Topo.TrunkLeft[0] toward the receiver) as the
// bottleneck every sender contends on. Unlike the star/WAN rigs, each
// sender runs its *own* congestion-control program — the BBR-vs-CUBIC
// coexistence shape production networks see and the paper never
// measures; the receiver always runs newreno, since it only sends acks.
// trunkGbps should be below LinkGbps so contention happens at the trunk
// and not at the access links.
func NewF4TDumbbellOn(f sim.Fabric, algs []string, trunkGbps, trunkPropNS int64, costs cpu.Costs, aqm netsim.AQMConfig, mutate func(*engine.Config)) *F4TTopo {
	n := len(algs) + 1
	specs := make([]netsim.NodeSpec, n)
	specs[0] = topoNode(0, 0, LinkPropNS) // the receiver sits alone on the left router
	for i := 1; i < n; i++ {
		specs[i] = topoNode(i, 1, LinkPropNS)
	}
	topo := netsim.NewDumbbellOn(f, [2]int{n, n + 1}, trunkGbps, trunkPropNS, specs, aqm, 6543)

	// ECN is a path property: if any sender marks, the receiver must echo.
	anyDctcp := false
	for _, a := range algs {
		anyDctcp = anyDctcp || a == "dctcp"
	}
	return buildTopo(f, topo, costs, mutate, 505, func(i int, cfg *engine.Config) {
		if i == 0 {
			cfg.Alg, cfg.Proto.ECN = "newreno", anyDctcp
		} else {
			cfg.Alg, cfg.Proto.ECN = algs[i-1], algs[i-1] == "dctcp"
		}
	})
}

// WANSpec describes one sender of the RTT-diverse WAN rig: which router
// of the chain it attaches to, its access propagation delay — what gives
// the chain its RTT diversity — and its access rate (0 = LinkGbps).
type WANSpec struct {
	RouterIdx int
	PropNS    int64
	Gbps      int64
}

// NewF4TWANOn builds the multi-hop WAN rig: a chain of nRouters joined
// by trunks, the receiver (node 0) on router 0, one sender per spec. All
// nodes run one core.
func NewF4TWANOn(f sim.Fabric, nRouters int, trunkGbps, trunkPropNS int64, recvPropNS int64, senders []WANSpec, costs cpu.Costs, aqm netsim.AQMConfig, mutate func(*engine.Config)) *F4TTopo {
	n := len(senders) + 1
	routerIslands := make([]int, nRouters)
	for r := range routerIslands {
		routerIslands[r] = n + r
	}
	specs := make([]netsim.NodeSpec, n)
	specs[0] = topoNode(0, 0, recvPropNS)
	for i, s := range senders {
		specs[i+1] = topoNode(i+1, s.RouterIdx, s.PropNS)
		if s.Gbps != 0 {
			specs[i+1].Gbps = s.Gbps
		}
	}
	topo := netsim.NewChainOn(f, routerIslands, trunkGbps, trunkPropNS, specs, aqm, 8765)
	return buildTopo(f, topo, costs, mutate, 303, nil)
}
