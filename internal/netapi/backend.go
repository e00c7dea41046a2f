package netapi

import (
	"errors"

	"f4t/internal/engine"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/softstack"
	"f4t/internal/stack"
	"f4t/internal/wire"
)

// connBackend is one connection's substrate: the engine-backed
// softstack.Socket or the software stack.Conn, reduced to the mirror
// reads, sim-invisible ring copies, and deferred effect posts the
// settle loop needs. All methods run island-side (or from the driver
// while the fabric is idle).
type connBackend interface {
	established() bool
	peerClosed() bool
	closed() bool
	wasReset() bool

	readPtr() seqnum.Value
	writePtr() seqnum.Value
	delivered() seqnum.Value
	acked() seqnum.Value
	sendCap() int

	readAt(ptr seqnum.Value, buf []byte)
	writeAt(ptr seqnum.Value, data []byte)
	postSend(ptr seqnum.Value) bool
	postRecv(ptr seqnum.Value) bool
	close() bool
	abort()

	localPort() uint16
	remote() (wire.Addr, uint16)
}

// stackBackend is one host's substrate behind a Stack.
type stackBackend interface {
	// pump drains backend events (completions, readiness callbacks)
	// into listener backlogs and socket mirrors; reports whether
	// anything was processed.
	pump(st *Stack) bool
	// pending reports undrained backend events — a NextWork input, so
	// it must read simulation-side state only.
	pending() bool
	// dial starts an active open. retry means "no capacity now, retry
	// next tick"; err is a hard failure.
	dial(raddr wire.Addr, rport uint16) (bc connBackend, retry bool, err error)
	// listen registers a listener; false means "retry next tick".
	listen(port uint16, ln *Listener) bool
}

// --- Engine-backed stack (softstack.Lib over an FtEngine channel) ---

// libConn adapts softstack.Socket.
type libConn struct {
	s     *softstack.Socket
	eng   *engine.Engine
	raddr wire.Addr
	rport uint16
}

func (b *libConn) established() bool        { return b.s.Established }
func (b *libConn) peerClosed() bool         { return b.s.PeerClosed }
func (b *libConn) closed() bool             { return b.s.Closed }
func (b *libConn) wasReset() bool           { return b.s.WasReset }
func (b *libConn) readPtr() seqnum.Value    { return b.s.ReadPtr() }
func (b *libConn) writePtr() seqnum.Value   { return b.s.WritePtr() }
func (b *libConn) delivered() seqnum.Value  { return b.s.DeliveredTo() }
func (b *libConn) acked() seqnum.Value      { return b.s.AckedTo() }
func (b *libConn) sendCap() int             { return int(b.eng.TxRingSize()) }
func (b *libConn) readAt(p seqnum.Value, buf []byte)  { b.s.ReadAt(p, buf) }
func (b *libConn) writeAt(p seqnum.Value, d []byte)   { b.s.WriteAt(p, d) }
func (b *libConn) postSend(p seqnum.Value) bool       { return b.s.PostSend(p) }
func (b *libConn) postRecv(p seqnum.Value) bool       { return b.s.PostRecv(p) }
func (b *libConn) close() bool              { return b.s.Close() }
func (b *libConn) abort()                   { b.s.Abort() }
func (b *libConn) localPort() uint16        { return b.s.LocalPort() }
func (b *libConn) remote() (wire.Addr, uint16) {
	if b.raddr == 0 {
		if t := b.eng.TCB(b.s.ID); t != nil {
			b.raddr, b.rport = t.Tuple.RemoteAddr, t.Tuple.RemotePort
		}
	}
	return b.raddr, b.rport
}

// libBackend is the engine-backed stackBackend: one softstack.Lib on
// one engine channel, owned exclusively by the facade (no F4TMachine
// may share the channel — both would race for its completions).
type libBackend struct {
	lib *softstack.Lib
	eng *engine.Engine
	lns map[uint16]*Listener
}

func (b *libBackend) pending() bool {
	return b.lib.PendingCompletions() > 0 || b.lib.PendingEvents() > 0
}

func (b *libBackend) pump(st *Stack) bool {
	n := 0
	for b.lib.PollOne() {
		n++
	}
	evs := b.lib.TakeEvents()
	for i := range evs {
		ev := &evs[i]
		if ev.Kind != softstack.EvAccepted {
			continue // state changes are read off the Socket mirrors
		}
		bc := &libConn{s: ev.Sock, eng: b.eng}
		if ln := b.lns[ev.Sock.LocalPort()]; ln != nil && !ln.closedLn {
			ln.backlog = append(ln.backlog, bc)
		} else {
			st.orphans = append(st.orphans, bc)
		}
	}
	return n > 0 || len(evs) > 0
}

func (b *libBackend) dial(raddr wire.Addr, rport uint16) (connBackend, bool, error) {
	s := b.lib.Dial(raddr, rport)
	if s == nil {
		return nil, true, nil // command queue full: retry
	}
	return &libConn{s: s, eng: b.eng, raddr: raddr, rport: rport}, false, nil
}

func (b *libBackend) listen(port uint16, ln *Listener) bool {
	b.lns[port] = ln
	return b.lib.Listen(port)
}

// enginePump is the Stack's sim.Sleeper for the engine backend.
type enginePump struct{ st *Stack }

func (p enginePump) Tick(cycle int64)          { p.st.pumpTick(cycle) }
func (p enginePump) NextWork(now int64) int64  { return p.st.nextWork(now) }

// NewEngineStack builds a facade over channel chIdx of an FtEngine and
// registers its pump on the island. The engine must carry real payload
// bytes (Config.CarryBytes) and the channel must not be driven by any
// other component. Register order matters for determinism: call this
// at the same point of rig construction on every fabric.
func NewEngineStack(f sim.Fabric, island int, eng *engine.Engine, chIdx int, opt Options) *Stack {
	k := f.IslandKernel(island)
	st := newStack(k, opt)
	st.be = &libBackend{
		lib: softstack.NewLib(k, eng, chIdx),
		eng: eng,
		lns: make(map[uint16]*Listener),
	}
	f.RegisterOn(island, enginePump{st})
	return st
}

// --- Software-host stack (stack.Endpoint, the soft/Linux substrate) ---

// epConn adapts stack.Conn.
type epConn struct {
	c   *stack.Conn
	cap int
}

func (b *epConn) established() bool        { return b.c.Established }
func (b *epConn) peerClosed() bool         { return b.c.PeerClosed }
func (b *epConn) closed() bool             { return b.c.Closed }
func (b *epConn) wasReset() bool           { return b.c.WasReset }
func (b *epConn) readPtr() seqnum.Value    { return b.c.ReadPtr() }
func (b *epConn) writePtr() seqnum.Value   { return b.c.WritePtr() }
func (b *epConn) delivered() seqnum.Value  { return b.c.DeliveredTo }
func (b *epConn) acked() seqnum.Value      { return b.c.AckedTo }
func (b *epConn) sendCap() int             { return b.cap }
func (b *epConn) readAt(p seqnum.Value, buf []byte) { b.c.ReadAt(p, buf) }
func (b *epConn) writeAt(p seqnum.Value, d []byte)  { b.c.WriteAt(p, d) }
func (b *epConn) postSend(p seqnum.Value) bool      { return b.c.PostSend(p) }
func (b *epConn) postRecv(p seqnum.Value) bool      { return b.c.PostRecv(p) }
func (b *epConn) close() bool              { b.c.Close(); return true }
func (b *epConn) abort()                   { b.c.Abort() }
func (b *epConn) localPort() uint16        { return b.c.TCB.Tuple.LocalPort }
func (b *epConn) remote() (wire.Addr, uint16) {
	return b.c.TCB.Tuple.RemoteAddr, b.c.TCB.Tuple.RemotePort
}

// hostBackend is the soft-host stackBackend over a stack.Endpoint.
type hostBackend struct {
	ep    *stack.Endpoint
	cap   int
	dirty bool // a conn callback fired since the last pump
}

func (b *hostBackend) markDirty() { b.dirty = true }

// hook installs the dirty-marking callbacks on a conn so pump ticks
// know a settle is worthwhile.
func (b *hostBackend) hook(c *stack.Conn) {
	c.OnEstablished = b.markDirty
	c.OnData = b.markDirty
	c.OnAcked = b.markDirty
	c.OnPeerClosed = b.markDirty
	c.OnClosed = b.markDirty
}

func (b *hostBackend) pending() bool { return b.dirty }

func (b *hostBackend) pump(st *Stack) bool {
	d := b.dirty
	b.dirty = false
	return d
}

func (b *hostBackend) dial(raddr wire.Addr, rport uint16) (connBackend, bool, error) {
	c := b.ep.Dial(raddr, rport)
	if c == nil {
		return nil, false, errors.New("netapi: ephemeral ports exhausted")
	}
	b.hook(c)
	return &epConn{c: c, cap: b.cap}, false, nil
}

func (b *hostBackend) listen(port uint16, ln *Listener) bool {
	b.ep.Listen(port, func(c *stack.Conn) {
		b.hook(c)
		b.markDirty()
		if ln.closedLn {
			c.Abort()
			return
		}
		ln.backlog = append(ln.backlog, &epConn{c: c, cap: b.cap})
	})
	return true
}

// hostPump drives the endpoint (RX queue, timers) and the facade from
// one Sleeper so their per-cycle order is fixed.
type hostPump struct {
	st  *Stack
	ep  *stack.Endpoint
	k   *sim.Kernel
	rxq []*wire.Packet
}

// deliver queues one received frame and wakes the pump. It is safe
// from cross-shard mailbox deliveries (queue-then-tick: no local
// timers are scheduled here).
func (p *hostPump) deliver(pkt *wire.Packet) {
	p.rxq = append(p.rxq, pkt)
	p.k.Wake(p)
}

func (p *hostPump) Tick(cycle int64) {
	if len(p.rxq) > 0 {
		q := p.rxq
		p.rxq = nil
		for _, pkt := range q {
			p.ep.HandlePacket(pkt)
		}
		if p.rxq == nil {
			p.rxq = q[:0] // recycle the queue buffer
		}
	}
	p.ep.ExpireTimers()
	p.st.pumpTick(cycle)
}

func (p *hostPump) NextWork(now int64) int64 {
	if len(p.rxq) > 0 {
		return now + 1
	}
	next := p.st.nextWork(now)
	if ns := p.ep.NextTimerNS(); ns > 0 {
		c := sim.NSToCycles(ns)
		if c <= now {
			c = now + 1
		}
		if c < next {
			next = c
		}
	}
	return next
}

// HostStack is a Stack over a software TCP endpoint, plus the surface
// core.AttachSoft wires to a network (Endpoint, DeliverPacket).
type HostStack struct {
	*Stack
	ep   *stack.Endpoint
	pump *hostPump
}

// Endpoint exposes the underlying software stack.
func (h *HostStack) Endpoint() *stack.Endpoint { return h.ep }

// DeliverPacket is the link sink: frames enter the endpoint through
// the pump's queue so processing happens under the pump's slot.
func (h *HostStack) DeliverPacket(pkt *wire.Packet) { h.pump.deliver(pkt) }

// NewHostStack builds a facade over a fresh software endpoint on the
// island. CarryBytes is forced on — the facade moves real payload. The
// caller plugs it into a network with core.AttachSoft.
func NewHostStack(f sim.Fabric, island int, sopt stack.Options, opt Options) *HostStack {
	k := f.IslandKernel(island)
	sopt.CarryBytes = true
	if opt.LocalIP == 0 {
		opt.LocalIP = sopt.IP
	}
	ep := stack.New(k, sopt, nil)
	st := newStack(k, opt)
	st.be = &hostBackend{ep: ep, cap: int(sopt.Cfg.RcvBuf)}
	p := &hostPump{st: st, ep: ep, k: k}
	f.RegisterOn(island, p)
	return &HostStack{Stack: st, ep: ep, pump: p}
}
