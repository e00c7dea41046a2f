package netsim

import (
	"fmt"

	"f4t/internal/sim"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// NodeSpec describes one endpoint of a topology: its address, which
// island its components run on, which router it hangs off, and its
// access-link characteristics. Per-node PropNS is what gives a WAN
// chain its RTT diversity.
type NodeSpec struct {
	Addr      wire.Addr
	MAC       wire.MAC
	Island    int
	RouterIdx int   // which router in the chain the node attaches to
	Gbps      int64 // access link bandwidth (both directions)
	PropNS    int64 // access link propagation delay (each direction)
}

// Topology is a built multi-node network: a chain of routers joined by
// trunk ports, with each node reaching its router through an uplink
// Pipe and receiving through a downlink RouterPort. Indexing follows
// the NodeSpec slice the builder was given.
//
// Construction order — routers, trunk ports (left to right), then per
// node the downlink port and uplink pipe — is fixed, so every fabric
// sees identical registration slots and RNG seeds and a sharded run
// stays bit-identical to a serial one (see sim.Fabric).
type Topology struct {
	Routers   []*Router
	NodePorts []*RouterPort // router→node downlink, per node
	Uplinks   []*Pipe       // node→router uplink, per node

	// Trunk ports, indexed by trunk segment i (between routers i and
	// i+1): TrunkRight[i] sits on router i facing i+1, TrunkLeft[i] on
	// router i+1 facing i. On a dumbbell, TrunkLeft[0] is the shared
	// bottleneck every right-side sender contends on toward router 0 —
	// the port fairness experiments read their queue evidence from.
	TrunkRight []*RouterPort
	TrunkLeft  []*RouterPort

	nodes []NodeSpec
}

// NewStarOn builds a single-router star (the incast/fan-in shape): all
// nodes share one switch, every flow crosses two queues (sender uplink,
// receiver downlink port). routerIsland is the switch's shard.
func NewStarOn(f sim.Fabric, routerIsland int, nodes []NodeSpec, cfg AQMConfig, seed uint64) *Topology {
	ns := append([]NodeSpec(nil), nodes...)
	for i := range ns {
		ns[i].RouterIdx = 0
	}
	return NewChainOn(f, []int{routerIsland}, 0, 0, ns, cfg, seed)
}

// NewDumbbellOn builds the classic two-router dumbbell: nodes attach to
// either router (NodeSpec.RouterIdx 0 or 1) and the shared trunk is the
// bottleneck every cross flow contends on.
func NewDumbbellOn(f sim.Fabric, routerIslands [2]int, trunkGbps, trunkPropNS int64, nodes []NodeSpec, cfg AQMConfig, seed uint64) *Topology {
	return NewChainOn(f, routerIslands[:], trunkGbps, trunkPropNS, nodes, cfg, seed)
}

// NewChainOn builds a linear chain of routers (a multi-hop WAN path for
// len > 2) joined by duplex trunks, and attaches every node to its
// RouterIdx router. The AQMConfig applies to every output port — trunk
// and downlink alike — each with private discipline state. A one-router
// chain takes no trunk parameters.
func NewChainOn(f sim.Fabric, routerIslands []int, trunkGbps, trunkPropNS int64, nodes []NodeSpec, cfg AQMConfig, seed uint64) *Topology {
	nr := len(routerIslands)
	if nr < 1 {
		panic("netsim: topology needs at least one router")
	}
	t := &Topology{nodes: append([]NodeSpec(nil), nodes...)}
	for i := 0; i < nr; i++ {
		t.Routers = append(t.Routers, NewRouter(fmt.Sprintf("sw%d", i)))
	}

	// Trunks: right[i] sits on router i facing i+1, left[i] on router
	// i+1 facing i. Trunk ports are routed, not sinks-of-record: their
	// sink is the peer router's Forward, which is cross-shard safe.
	right := make([]*RouterPort, nr)
	left := make([]*RouterPort, nr) // left[i] lives on router i+1
	for i := 0; i < nr-1; i++ {
		if trunkGbps <= 0 {
			panic("netsim: multi-router chain needs a trunk bandwidth")
		}
		minLat := MinLatencyCycles(trunkPropNS)
		r := newRouterPort(f.IslandKernel(routerIslands[i]),
			f.CrossPost(routerIslands[i], routerIslands[i+1], minLat),
			fmt.Sprintf("trunk%d_%d", i, i+1), trunkGbps, trunkPropNS, cfg)
		r.SetSink(t.Routers[i+1].Forward)
		t.Routers[i].ports = append(t.Routers[i].ports, r)
		f.RegisterOn(routerIslands[i], r)
		right[i] = r

		l := newRouterPort(f.IslandKernel(routerIslands[i+1]),
			f.CrossPost(routerIslands[i+1], routerIslands[i], minLat),
			fmt.Sprintf("trunk%d_%d", i+1, i), trunkGbps, trunkPropNS, cfg)
		l.SetSink(t.Routers[i].Forward)
		t.Routers[i+1].ports = append(t.Routers[i+1].ports, l)
		f.RegisterOn(routerIslands[i+1], l)
		left[i] = l
	}
	t.TrunkRight = append(t.TrunkRight, right[:nr-1]...)
	t.TrunkLeft = append(t.TrunkLeft, left[:nr-1]...)

	// Node attachments: a downlink RouterPort (router island → node
	// island) and an uplink Pipe (node island → router island), seeded
	// per node so fault/mark draws never alias between links.
	for j := range t.nodes {
		n := &t.nodes[j]
		if n.RouterIdx < 0 || n.RouterIdx >= nr {
			panic(fmt.Sprintf("netsim: node %d attaches to router %d of %d", j, n.RouterIdx, nr))
		}
		rIsl := routerIslands[n.RouterIdx]
		minLat := MinLatencyCycles(n.PropNS)

		down := newRouterPort(f.IslandKernel(rIsl),
			f.CrossPost(rIsl, n.Island, minLat),
			fmt.Sprintf("node%d", j), n.Gbps, n.PropNS, cfg)
		t.Routers[n.RouterIdx].ports = append(t.Routers[n.RouterIdx].ports, down)
		f.RegisterOn(rIsl, down)
		t.NodePorts = append(t.NodePorts, down)

		up := NewPipe(f.IslandKernel(n.Island), n.Gbps, n.PropNS, seed*1000+uint64(j)*2+1, nil)
		up.post = f.CrossPost(n.Island, rIsl, minLat)
		up.SetSink(t.Routers[n.RouterIdx].Forward)
		t.Uplinks = append(t.Uplinks, up)
	}

	// Routes: on each router, a node's address exits through its
	// downlink when local, else through the trunk toward its router.
	for j := range t.nodes {
		n := &t.nodes[j]
		for r := 0; r < nr; r++ {
			switch {
			case r == n.RouterIdx:
				t.Routers[r].Route(n.Addr, t.NodePorts[j])
			case r < n.RouterIdx:
				t.Routers[r].Route(n.Addr, right[r])
			default:
				t.Routers[r].Route(n.Addr, left[r-1])
			}
		}
	}
	return t
}

// Nodes returns the topology's node count.
func (t *Topology) Nodes() int { return len(t.nodes) }

// Node returns the j-th node's spec.
func (t *Topology) Node(j int) NodeSpec { return t.nodes[j] }

// NodeTX returns the j-th node's transmit function (what its engine or
// stack sends into).
func (t *Topology) NodeTX(j int) func(*wire.Packet) { return t.Uplinks[j].Send }

// SetNodeSink attaches the j-th node's receive callback to its downlink
// port.
func (t *Topology) SetNodeSink(j int, deliver func(*wire.Packet)) {
	t.NodePorts[j].SetSink(deliver)
}

// Instrument registers every router (and its ports) plus every uplink
// under prefix. A nil registry is a no-op.
func (t *Topology) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	for _, r := range t.Routers {
		r.Instrument(reg, prefix+"."+r.Name)
	}
	for j, up := range t.Uplinks {
		up.Instrument(reg, fmt.Sprintf("%s.up%d", prefix, j))
	}
}
