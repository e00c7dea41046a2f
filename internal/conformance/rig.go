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

// Conn is the substrate-independent view of one connection under test.
type Conn interface {
	Established() bool
	Reset() bool      // the connection was reset
	Done() bool       // fully terminated
	PeerClosed() bool // the peer's FIN was delivered
	LocalPort() uint16
	PeerPort() uint16
	Send(b []byte) int
	Recv(max int) ([]byte, int)
	Available() int
	Close()
	Abort()
}

// Endpoint hides which substrate (software stack, or engine + library)
// one side of the rig runs on.
type Endpoint interface {
	Name() string
	Listen()
	Dial() Conn
	// Poll pumps host-side completions and returns connections accepted
	// since the previous call.
	Poll() []Conn
	VisitTCBs(fn func(*flow.TCB))
	// OowRstDrops returns how many inbound RSTs this side discarded for
	// failing sequence validation.
	OowRstDrops() int64
}

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
	A, B Endpoint

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
	var ends [2]rigEnd
	for i, name := range [2]string{"A", "B"} {
		if onEngine[i] {
			ends[i] = newEngineEnd(f, net, i, name, seed*4+2+uint64(i), alg)
		} else {
			ends[i] = newStackEnd(f, net, i, name, seed*4+2+uint64(i), alg)
		}
	}
	r.A, r.B = ends[0], ends[1]
	f.RegisterOn(islandA, ends[0].ticker())
	f.RegisterOn(islandB, ends[1].ticker())

	// The injectors sit between the network and each end's RX entry.
	r.InjToA = &rstInjector{next: ends[0].DeliverPacket}
	r.InjToB = &rstInjector{next: ends[1].DeliverPacket}
	net.SetNodeSink(0, r.InjToA.deliver)
	net.SetNodeSink(1, r.InjToB.deliver)
	return r
}

// rigEnd is what the rig builder needs of either substrate's endpoint
// beyond the harness-facing Endpoint: its RX entry and its ticker.
type rigEnd interface {
	Endpoint
	DeliverPacket(*wire.Packet)
	ticker() sim.Ticker
}

// --- software-stack endpoint ---

type stackEnd struct {
	name     string
	k        *sim.Kernel
	ep       *stack.Endpoint
	peer     wire.Addr
	rx       []*wire.Packet
	accepted []Conn
}

func newStackEnd(f sim.Fabric, net core.Net, i int, name string, seed uint64, alg string) *stackEnd {
	cfg := tcpproc.DefaultConfig()
	cfg.RcvBuf = rigRcvBuf
	cfg.ECN = alg == "dctcp"
	spec := net.Node(i)
	k := f.IslandKernel(spec.Island)
	s := &stackEnd{name: name, k: k, peer: core.Peers(net, i)[0]}
	s.ep = stack.New(k, stack.Options{
		IP: spec.Addr, MAC: spec.MAC, Cfg: cfg, Alg: alg, CarryBytes: true, Seed: seed,
	}, nil)
	core.AttachSoft(net, i, s)
	return s
}

// Endpoint exposes the stack to core.AttachSoft.
func (s *stackEnd) Endpoint() *stack.Endpoint { return s.ep }

func (s *stackEnd) ticker() sim.Ticker { return s }

// DeliverPacket is the network sink. Packets queue and are processed on
// the endpoint's own tick: a delivery callback may be a cross-shard
// injection running under a foreign slot, which must not synchronously
// schedule local timers (responses transmit from Tick instead).
func (s *stackEnd) DeliverPacket(p *wire.Packet) {
	s.rx = append(s.rx, p)
	s.k.Wake(s)
}

// Tick drains queued RX packets (responses, if any, transmit here under
// the endpoint's own slot) and then expires stack timers.
func (s *stackEnd) Tick(cycle int64) {
	for len(s.rx) > 0 {
		p := s.rx[0]
		s.rx = s.rx[1:]
		s.ep.HandlePacket(p)
	}
	s.ep.Tick(cycle)
}

func (s *stackEnd) Name() string { return s.name }

func (s *stackEnd) Listen() {
	s.ep.Listen(rigPort, func(c *stack.Conn) {
		s.accepted = append(s.accepted, &stackConn{c: c})
	})
}

func (s *stackEnd) Dial() Conn {
	c := s.ep.Dial(s.peer, rigPort)
	if c == nil {
		return nil
	}
	return &stackConn{c: c}
}

func (s *stackEnd) Poll() []Conn {
	out := s.accepted
	s.accepted = nil
	return out
}

func (s *stackEnd) VisitTCBs(fn func(*flow.TCB)) {
	s.ep.EachConn(func(c *stack.Conn) { fn(c.TCB) })
}

func (s *stackEnd) OowRstDrops() int64 { return s.ep.RxOowRsts }

type stackConn struct{ c *stack.Conn }

func (c *stackConn) Established() bool          { return c.c.Established }
func (c *stackConn) Reset() bool                { return c.c.WasReset }
func (c *stackConn) Done() bool                 { return c.c.Closed || c.c.WasReset }
func (c *stackConn) PeerClosed() bool           { return c.c.PeerClosed }
func (c *stackConn) LocalPort() uint16          { return c.c.TCB.Tuple.LocalPort }
func (c *stackConn) PeerPort() uint16           { return c.c.TCB.Tuple.RemotePort }
func (c *stackConn) Send(b []byte) int          { return c.c.Send(b) }
func (c *stackConn) Recv(max int) ([]byte, int) { return c.c.Recv(max) }
func (c *stackConn) Available() int             { return c.c.Available() }
func (c *stackConn) Close()                     { c.c.Close() }
func (c *stackConn) Abort()                     { c.c.Abort() }

// --- engine + library endpoint ---

type engineEnd struct {
	name string
	eng  *engine.Engine
	lib  *softstack.Lib
	peer wire.Addr
}

func newEngineEnd(f sim.Fabric, net core.Net, i int, name string, seed uint64, alg string) *engineEnd {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.Alg = alg
	cfg.CarryBytes = true
	cfg.Proto.RcvBuf = rigRcvBuf
	cfg.Proto.ECN = alg == "dctcp"
	eng := core.AttachEngine(f, net, i, cfg)
	return &engineEnd{name: name, eng: eng, lib: softstack.NewLib(eng.K, eng, 0), peer: core.Peers(net, i)[0]}
}

func (e *engineEnd) DeliverPacket(p *wire.Packet) { e.eng.DeliverPacket(p) }

func (e *engineEnd) ticker() sim.Ticker { return e.eng }

func (e *engineEnd) Name() string { return e.name }

func (e *engineEnd) Listen() { e.lib.Listen(rigPort) }

func (e *engineEnd) Dial() Conn {
	s := e.lib.Dial(e.peer, rigPort)
	if s == nil {
		return nil
	}
	return &sockConn{s: s, end: e}
}

func (e *engineEnd) Poll() []Conn {
	var out []Conn
	for _, ev := range e.lib.Poll() {
		if ev.Kind == softstack.EvAccepted {
			out = append(out, &sockConn{s: ev.Sock, end: e})
		}
	}
	return out
}

func (e *engineEnd) VisitTCBs(fn func(*flow.TCB)) { e.eng.VisitTCBs(fn) }

func (e *engineEnd) OowRstDrops() int64 { return e.eng.OowRstDrops.Total() }

type sockConn struct {
	s   *softstack.Socket
	end *engineEnd
}

func (c *sockConn) Established() bool { return c.s.Established }
func (c *sockConn) Reset() bool       { return c.s.WasReset }
func (c *sockConn) Done() bool        { return c.s.Closed || c.s.WasReset }
func (c *sockConn) PeerClosed() bool  { return c.s.PeerClosed }
func (c *sockConn) LocalPort() uint16 { return c.s.LocalPort() }

func (c *sockConn) PeerPort() uint16 {
	if t := c.end.eng.TCB(c.s.ID); t != nil {
		return t.Tuple.RemotePort
	}
	return 0
}

func (c *sockConn) Send(b []byte) int          { return c.s.Send(b) }
func (c *sockConn) Recv(max int) ([]byte, int) { return c.s.Recv(max) }
func (c *sockConn) Available() int             { return c.s.Available() }
func (c *sockConn) Close()                     { c.s.Close() }
func (c *sockConn) Abort()                     { c.s.Abort() }

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
