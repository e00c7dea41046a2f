// Package conformance is a deterministic, seed-driven TCP chaos and
// differential-testing harness. It drives two endpoints — any pairing of
// the software stack and the FtEngine model — through reproducible fault
// schedules (loss, reordering, duplication, forged resets, zero-window
// stalls, tiny-segment storms, connection churn) while checking protocol
// invariants on every sampled TCB: sequence-space monotonicity, RFC 793
// state-machine legality, timer sanity, byte-stream integrity, and
// drain-to-quiescence liveness. Every run is a pure function of its
// seed, so any failure replays exactly; a failing seed shrinks to the
// shortest reproducing schedule prefix via Minimize.
package conformance

import (
	"fmt"
	"strings"

	"f4t/internal/core"
	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/softstack"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// RigKind selects the endpoint pairing under test.
type RigKind int

// The rig pairings: software stack on both ends, the FtEngine model
// against the software stack (differential), FtEngine on both ends, and
// FtEngine on both ends joined through an output-queued router instead
// of a point-to-point link.
const (
	RigSoftSoft RigKind = iota
	RigEngineSoft
	RigEngineEngine
	RigEngineEngineRouted
)

// AllRigs lists every pairing, in sweep order.
var AllRigs = []RigKind{RigSoftSoft, RigEngineSoft, RigEngineEngine, RigEngineEngineRouted}

var rigNames = [...]string{"soft-soft", "engine-soft", "engine-engine", "engine-engine-routed"}

// String returns the rig's command-line name.
func (r RigKind) String() string {
	if int(r) < len(rigNames) {
		return rigNames[r]
	}
	return "unknown"
}

// ParseRig resolves a command-line rig name.
func ParseRig(s string) (RigKind, error) {
	for i, n := range rigNames {
		if s == n {
			return RigKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown rig %q (want %s)", s, strings.Join(rigNames[:], ", "))
}

// End is one side of a rig: the socket seam (sock.Host) over whichever
// substrate the side runs on, plus what the trackers and the rig builder
// need of the stack beneath it.
type End struct {
	Name string
	sock.Host
	peer wire.Addr // the other end

	VisitTCBs   func(func(*flow.TCB))
	OowRstDrops func() int64 // inbound RSTs discarded by sequence validation

	deliver func(*wire.Packet) // RX entry
	ticker  sim.Ticker
}

// dial opens a connection to the other end's listener (nil: retry).
func (e *End) dial() sock.Conn { return e.Dial(e.peer, rigPort) }

// rigPort is the listening port every rig uses.
const rigPort = 80

// rigRcvBuf keeps receive buffers small so zero-window phases actually
// pinch the window shut within a phase's worth of traffic.
const rigRcvBuf = 64 * 1024

// Islands of a rig on a sim.Fabric: endpoint A (dialer) and endpoint B
// (listener). On a sharded fabric the two endpoints run on separate
// goroutines with the link's latency as the synchronization lookahead.
const (
	islandA = 0
	islandB = 1
	// The routed rig's switch lives on its own island, so a sharded run
	// exercises the router/endpoint barriers too.
	rigRouterIsland = 2
)

// Rig is one two-endpoint test network: A dials, B listens.
type Rig struct {
	R    sim.Runner // fabric driving the rig (serial kernel or sharded)
	Link *netsim.Link
	A, B *End

	// Forged-RST injectors, one per direction (toward B, toward A).
	InjToB, InjToA *rstInjector
}

// SetFaults applies one fault profile to both directions.
func (r *Rig) SetFaults(f netsim.Faults) {
	r.Link.AtoB.SetFaults(f)
	r.Link.BtoA.SetFaults(f)
}

// SetRSTEvery arms (or, with 0, disarms) forged-RST injection on both
// directions.
func (r *Rig) SetRSTEvery(n int64) {
	r.InjToB.every = n
	r.InjToA.every = n
}

// ForgedRSTs returns the total resets forged so far, both directions.
func (r *Rig) ForgedRSTs() int64 { return r.InjToB.forged + r.InjToA.forged }

// NewRigAlgOn builds the pairing on a 100 Gbps / 600 ns link (or, for
// the routed kind, a one-switch star) on any fabric, both endpoints
// running the named congestion-control program (endpoint A on islandA,
// endpoint B on islandB), each attached through package core's node
// seam (the determinism contract lives there; the shard matrix test in
// shard_test.go holds this rig to it). All randomness (ISNs, link fault
// draws) derives from seed, so two rigs with the same kind and seed
// evolve identically. A dctcp rig enables ECN end to
// end; with no marking discipline on the rig's link the program
// degrades to its loss response, which is exactly the chaos-weather
// path the sweep wants to exercise.
func NewRigAlgOn(f sim.Fabric, kind RigKind, seed uint64, alg string) *Rig {
	if alg == "" {
		alg = "newreno"
	}
	specs := []netsim.NodeSpec{
		{Addr: wire.MakeAddr(10, 9, 0, 1), MAC: wire.MAC{2, 9, 0, 0, 0, 1}, Island: islandA, Gbps: 100, PropNS: 600},
		{Addr: wire.MakeAddr(10, 9, 0, 2), MAC: wire.MAC{2, 9, 0, 0, 0, 2}, Island: islandB, Gbps: 100, PropNS: 600},
	}
	r := &Rig{R: f}

	// The endpoints either face each other over a point-to-point link or
	// hang off a one-switch star. Either way r.Link names the two pipes
	// faults inject on: for the routed rig those are the uplinks, so the
	// fault schedule hits before the router queues, like a real host NIC.
	var net core.Net
	if kind == RigEngineEngineRouted {
		topo := netsim.NewStarOn(f, rigRouterIsland, specs, netsim.DropTail(0), seed*4+1)
		r.Link = &netsim.Link{AtoB: topo.Uplinks[0], BtoA: topo.Uplinks[1]}
		net = topo
	} else {
		r.Link = netsim.NewNodeLinkOn(f, specs[0], specs[1], seed*4+1)
		net = r.Link
	}

	if kind < RigSoftSoft || kind > RigEngineEngineRouted {
		panic("conformance: unknown rig kind")
	}
	// Which ends run on an engine (the rest run the software stack).
	onEngine := [2]bool{kind != RigSoftSoft, kind >= RigEngineEngine}
	var ends [2]*End
	for i, name := range [2]string{"A", "B"} {
		if onEngine[i] {
			ends[i] = newEngineEnd(f, net, i, seed*4+2+uint64(i), alg)
		} else {
			ends[i] = newStackEnd(f, net, i, seed*4+2+uint64(i), alg)
		}
		ends[i].Name, ends[i].peer = name, core.Peers(net, i)[0]
	}
	r.A, r.B = ends[0], ends[1]
	f.RegisterOn(islandA, ends[0].ticker)
	f.RegisterOn(islandB, ends[1].ticker)

	// The injectors sit between the network and each end's RX entry.
	r.InjToA = &rstInjector{next: ends[0].deliver}
	r.InjToB = &rstInjector{next: ends[1].deliver}
	net.SetNodeSink(0, r.InjToA.deliver)
	net.SetNodeSink(1, r.InjToB.deliver)
	return r
}

// newStackEnd puts the software stack on node i, driven by the shared
// queue-then-tick node (RX queue, timers, NextWork).
func newStackEnd(f sim.Fabric, net core.Net, i int, seed uint64, alg string) *End {
	cfg := tcpproc.DefaultConfig()
	cfg.RcvBuf = rigRcvBuf
	cfg.ECN = alg == "dctcp"
	spec := net.Node(i)
	ep := stack.New(f.IslandKernel(spec.Island), stack.Options{
		IP: spec.Addr, MAC: spec.MAC, Cfg: cfg, Alg: alg, CarryBytes: true, Seed: seed,
	}, nil)
	node := stack.NewNode(ep)
	core.AttachSoft(net, i, node)
	return &End{
		Host:        stack.NewHosts(ep, 1)[0],
		VisitTCBs:   ep.VisitTCBs,
		OowRstDrops: func() int64 { return ep.RxOowRsts },
		deliver:     node.DeliverPacket,
		ticker:      node,
	}
}

// newEngineEnd puts an FtEngine on node i with one library instance on
// its only channel.
func newEngineEnd(f sim.Fabric, net core.Net, i int, seed uint64, alg string) *End {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.Alg = alg
	cfg.CarryBytes = true
	cfg.Proto.RcvBuf = rigRcvBuf
	cfg.Proto.ECN = alg == "dctcp"
	eng := core.AttachEngine(f, net, i, cfg)
	return &End{
		Host:        softstack.NewLib(eng.K, eng, 0),
		VisitTCBs:   eng.VisitTCBs,
		OowRstDrops: eng.OowRstDrops.Total,
		deliver:     eng.DeliverPacket,
		ticker:      eng,
	}
}

// --- forged-RST injection ---

// rstInjector sits between a pipe and its sink. While armed, every
// every-th payload-bearing or ACK packet is preceded by a forged RST
// whose sequence number is displaced a deterministic 1 GiB from the
// segment it shadows — far outside any receive window, so RFC-conformant
// sequence validation must discard every single one. SYN and RST
// segments are never shadowed (a forged reset "for" a SYN would need the
// ACK-validation path instead, and resets never answer resets).
type rstInjector struct {
	next   func(*wire.Packet)
	every  int64
	seen   int64
	forged int64
}

// rstDisplacement pushes forged resets out of any plausible window
// (windows top out at 2 MB; this is 1 GiB).
const rstDisplacement = 1 << 30

func (ri *rstInjector) deliver(pkt *wire.Packet) {
	if ri.every > 0 && pkt.Kind == wire.KindTCP &&
		pkt.TCP.Flags&(wire.FlagRST|wire.FlagSYN) == 0 {
		ri.seen++
		if ri.seen%ri.every == 0 {
			forged := pkt.Clone()
			forged.TCP.Flags = wire.FlagRST
			forged.TCP.Seq = pkt.TCP.Seq.Add(rstDisplacement)
			forged.TCP.Ack = 0
			forged.PayloadLen, forged.Payload = 0, nil
			ri.forged++
			ri.next(forged)
		}
	}
	ri.next(pkt)
}
