// Package core is the rig builder: it assembles every testbed in the
// repo — the two-node pair of §5, the star/dumbbell/WAN scenario rigs,
// the conformance and facade rigs — from one node-attach routine, on
// any sim.Fabric. A rig is a network (a netsim.Link or a
// netsim.Topology, both behind the Net seam) plus one stack per node:
// an FtEngine, optionally with its library host (the deployable unit of
// the paper), or a software-stack host.
//
// Determinism contract. A sharded run is bit-identical to a serial one
// because nothing about a rig depends on the fabric: registration slots
// (the timer tie-break, see sim.Fabric) are handed out in one canonical
// order — network ports when the network is built, then every engine in
// node order, then every machine in node order, then whatever the
// caller registers (apps, facade pumps) — and every random stream is
// seeded from the node's own configuration. Builders elsewhere defer to
// this paragraph rather than restating it.
package core

import (
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/wire"
)

// Net is the seam between a rig's nodes and its network: who is on it
// (address, island) and how node j transmits and receives. Both
// *netsim.Link (two nodes) and *netsim.Topology implement it.
type Net interface {
	Nodes() int
	Node(j int) netsim.NodeSpec
	NodeTX(j int) func(*wire.Packet)
	SetNodeSink(j int, deliver func(*wire.Packet))
}

// Peers returns the addresses of every node but i, in node order: the
// remotes table of node i's machine, so Thread.Dial's remoteIdx counts
// the other nodes (on a pair, 0 is the peer).
func Peers(net Net, i int) []wire.Addr {
	var out []wire.Addr
	eachPeer(net, i, func(ip wire.Addr, _ wire.MAC) { out = append(out, ip) })
	return out
}

func eachPeer(net Net, i int, fn func(wire.Addr, wire.MAC)) {
	for j := 0; j < net.Nodes(); j++ {
		if j != i {
			fn(net.Node(j).Addr, net.Node(j).MAC)
		}
	}
}

// AttachEngine is the node-attach routine: it builds node i's FtEngine
// on the node's island kernel with the node's address, transmitting
// into the network, receiving from it, and knowing every peer's MAC.
// The caller registers the engine (Build does, in canonical order).
func AttachEngine(f sim.Fabric, net Net, i int, cfg engine.Config) *engine.Engine {
	spec := net.Node(i)
	cfg.IP, cfg.MAC = spec.Addr, spec.MAC
	eng := engine.New(f.IslandKernel(spec.Island), cfg, net.NodeTX(i))
	net.SetNodeSink(i, eng.DeliverPacket)
	eachPeer(net, i, eng.LearnPeer)
	return eng
}

// SoftNode is a software-stack host (host.LinuxMachine, a stack.Node,
// netapi.HostStack) as the attach step sees it.
type SoftNode interface {
	Endpoint() *stack.Endpoint
	DeliverPacket(*wire.Packet)
}

// AttachSoft is AttachEngine's counterpart for an already-built
// software-stack host: wire node i's transmit, receive and peer table.
func AttachSoft(net Net, i int, n SoftNode) {
	n.Endpoint().SetTx(net.NodeTX(i))
	net.SetNodeSink(i, n.DeliverPacket)
	eachPeer(net, i, n.Endpoint().LearnPeer)
}

// Rig is a built F4T testbed: one engine per network node and, when
// built with hosts, one library machine per engine. Index = node.
type Rig struct {
	R       sim.Runner    // the fabric driving the rig
	K       *sim.Kernel   // the serial kernel, nil when R is sharded
	Kernels []*sim.Kernel // each node's island clock
	Engines []*engine.Engine
	Machs   []*host.F4TMachine // empty when built without hosts
}

// Build puts an engine on every node of net. node(i) supplies node i's
// engine configuration (design point, seed, channels; IP/MAC come from
// the network). A non-nil costs adds a host.F4TMachine per node with
// one thread per engine channel and costs(i) as its CPU cost table;
// facade rigs pass nil because the facade owns the channels. Engines
// and machines are registered directly (no TickerFunc wrapper) so the
// kernel sees their NextWork hints and can skip quiescent spans.
func Build(f sim.Fabric, net Net, node func(i int) engine.Config, costs func(i int) cpu.Costs) *Rig {
	r := &Rig{R: f}
	r.K, _ = f.(*sim.Kernel)
	for i := 0; i < net.Nodes(); i++ {
		r.Kernels = append(r.Kernels, f.IslandKernel(net.Node(i).Island))
		r.Engines = append(r.Engines, AttachEngine(f, net, i, node(i)))
	}
	if costs != nil {
		for i, eng := range r.Engines {
			r.Machs = append(r.Machs, host.NewF4TMachine(r.Kernels[i], eng, len(eng.Channels), costs(i), Peers(net, i)))
		}
	}
	for i, eng := range r.Engines {
		f.RegisterOn(net.Node(i).Island, eng)
	}
	for i, m := range r.Machs {
		f.RegisterOn(net.Node(i).Island, m)
	}
	return r
}

// HostConfig describes one F4T host of the two-node testbed.
type HostConfig struct {
	IP    wire.Addr
	MAC   wire.MAC
	Cores int // CPU cores = application threads = command queue pairs

	// Engine carries the hardware design point; zero value = the
	// reference 8-FPC design. IP/MAC/Channels are filled from this
	// struct, and Seed is offset per host so the two ends never share
	// an ISN stream.
	Engine engine.Config
	Costs  cpu.Costs
}

// System is one F4T host of a Testbed: FtEngine + host machine.
type System struct {
	Engine  *engine.Engine
	Machine *host.F4TMachine
}

// Threads returns the application threads (one per core).
func (s *System) Threads() []host.Thread { return s.Machine.Threads() }

// Testbed is two F4T hosts direct-connected by one link — the
// evaluation setup of §5.
type Testbed struct {
	K    *sim.Kernel
	Link *netsim.Link
	A, B *System
}

// NewTestbed builds the two-node testbed on a fresh serial kernel.
// linkGbps ≤ 0 defaults to 100.
func NewTestbed(cfgA, cfgB HostConfig, linkGbps int64) *Testbed {
	if linkGbps <= 0 {
		linkGbps = 100
	}
	cfgs := [2]HostConfig{cfgA, cfgB}
	var specs [2]netsim.NodeSpec
	for i := range cfgs {
		c := &cfgs[i]
		if c.Cores <= 0 {
			c.Cores = 1
		}
		if c.Engine.NumFPCs == 0 {
			c.Engine = engine.DefaultConfig()
		}
		if c.Costs.Syscall == 0 {
			c.Costs = cpu.DefaultCosts()
		}
		specs[i] = netsim.NodeSpec{Addr: c.IP, MAC: c.MAC, Island: i, Gbps: linkGbps, PropNS: 600}
	}
	k := sim.New()
	link := netsim.NewNodeLinkOn(k, specs[0], specs[1], 424242)
	rig := Build(k, link, func(i int) engine.Config {
		ec := cfgs[i].Engine
		ec.Channels = cfgs[i].Cores
		ec.Seed += uint64(101 * (i + 1))
		return ec
	}, func(i int) cpu.Costs { return cfgs[i].Costs })
	return &Testbed{K: k, Link: link,
		A: &System{Engine: rig.Engines[0], Machine: rig.Machs[0]},
		B: &System{Engine: rig.Engines[1], Machine: rig.Machs[1]}}
}

// DefaultHostA returns a ready-to-use host configuration for node A.
func DefaultHostA(cores int) HostConfig { return defaultHost(1, cores) }

// DefaultHostB returns a ready-to-use host configuration for node B.
func DefaultHostB(cores int) HostConfig { return defaultHost(2, cores) }

func defaultHost(n byte, cores int) HostConfig {
	return HostConfig{IP: wire.MakeAddr(10, 0, 0, n), MAC: wire.MAC{2, 0, 0, 0, 0, n}, Cores: cores}
}
