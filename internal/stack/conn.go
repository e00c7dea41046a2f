package stack

import (
	"f4t/internal/cc"
	"f4t/internal/datapath"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Conn is one TCP connection's host-side view: the byte-stream pointers
// the application manipulates (write/consume) plus the mirrors maintained
// from stack notifications. It implements sock.Conn. The connection's TCB
// lives inside it, so one connection end is one allocation; applications
// keep and query a Conn after its flow is freed (and its ID recycled), so
// Conns are never pooled.
type Conn struct {
	ep  *Endpoint
	alg cc.Algorithm

	txRing *datapath.Ring

	// Host-visible mirrors (updated by notifications).
	established bool
	peerClosed  bool
	closed      bool
	wasReset    bool
	ackedTo     seqnum.Value // send bytes below this are released
	deliveredTo seqnum.Value // in-order received data boundary

	// App-side pointers.
	writePtr    seqnum.Value // next send byte the app will queue
	readPtr     seqnum.Value // next received byte the app will consume
	ID          flow.ID      // here among the 4-byte words, no padding: with tcb, Conn is 448 B (448 B size class)
	handle      flow.ID      // drawn from its Host's queue at Dial or adoption
	closeCalled bool

	passive bool
	freed   bool

	// The thread whose event queue the notifications feed: set by
	// Host.Dial or as a listener's group adopts a passive connection.
	// Nil on a bare endpoint (tests that only watch the mirrors).
	host *Host

	tcb flow.TCB
}

// notify queues one readiness event on the owning thread. Whatever the
// app does about it happens from its own Poll, never inside this pass.
func (c *Conn) notify(kind sock.EventKind) {
	if c.host != nil {
		c.host.Events.Push(kind, c)
	}
}

// Handle implements sock.Conn.
func (c *Conn) Handle() flow.ID { return c.handle }

// TCB returns the connection's control block. It stays readable after
// the flow is freed.
func (c *Conn) TCB() *flow.TCB { return &c.tcb }

// Established reports handshake completion.
func (c *Conn) Established() bool { return c.established }

// PeerClosed reports a delivered peer FIN.
func (c *Conn) PeerClosed() bool { return c.peerClosed }

// Closed reports full termination.
func (c *Conn) Closed() bool { return c.closed }

// WasReset reports termination by a reset.
func (c *Conn) WasReset() bool { return c.wasReset }

// AckedTo returns the boundary below which send bytes are released.
func (c *Conn) AckedTo() seqnum.Value { return c.ackedTo }

// DeliveredTo returns the in-order received data boundary.
func (c *Conn) DeliveredTo() seqnum.Value { return c.deliveredTo }

// LocalPort returns the port this connection is bound to.
func (c *Conn) LocalPort() uint16 { return c.tcb.Tuple.LocalPort }

// Remote returns the peer's address and port.
func (c *Conn) Remote() (wire.Addr, uint16) {
	return c.tcb.Tuple.RemoteAddr, c.tcb.Tuple.RemotePort
}

// SendCap returns the send-buffer capacity.
func (c *Conn) SendCap() int { return int(c.ep.Opt.Cfg.RcvBuf) }

// anchor fixes the app byte-stream pointers on both ISNs. The endpoint
// calls it once, at the first NoteEstablished: tcpproc notes no acked or
// delivered byte before that, so no boundary has moved yet. Until then
// the stream holds nothing and accepts nothing, as softstack.Socket's.
func (c *Conn) anchor() {
	c.writePtr, c.ackedTo = c.tcb.ISS.Add(1), c.tcb.ISS.Add(1)
	c.readPtr, c.deliveredTo = c.tcb.IRS.Add(1), c.tcb.IRS.Add(1)
}

// SendSpace returns the free send-buffer bytes: a send() larger than this
// blocks (blocking sockets) or short-writes (non-blocking), §4.1.1.
func (c *Conn) SendSpace() int {
	if !c.established {
		return 0
	}
	used := int(c.writePtr.DistanceFrom(c.ackedTo))
	space := c.SendCap() - used
	if space < 0 {
		space = 0
	}
	return space
}

// Send queues data for transmission, copying into the TX ring (byte mode)
// and advancing the REQ pointer. It returns the number of bytes accepted,
// bounded by the free send-buffer space.
func (c *Conn) Send(data []byte) int { return c.send(len(data), data) }

// SendModelled queues n bytes without supplying payload (modelled-only
// transfers). It returns the accepted byte count.
func (c *Conn) SendModelled(n int) int { return c.send(n, nil) }

func (c *Conn) send(n int, data []byte) int {
	if c.freed || c.closeCalled {
		return 0
	}
	space := c.SendSpace()
	if n > space {
		n = space
	}
	if n <= 0 {
		return 0
	}
	if data != nil {
		c.WriteAt(c.writePtr, data[:n])
	}
	c.writePtr = c.writePtr.Add(seqnum.Size(n))
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasReq: true, Req: c.writePtr}
	c.ep.Inject(c, &ev)
	return n
}

// rxRing returns the receive ring the parser fills (nil in modelled
// mode). A freed connection has none: its ID may belong to another flow.
func (c *Conn) rxRing() *datapath.Ring {
	if c.freed {
		return nil
	}
	return c.ep.front.Ring(c.ID)
}

// Available returns the in-order received bytes not yet consumed.
func (c *Conn) Available() int {
	return int(c.deliveredTo.DistanceFrom(c.readPtr))
}

// Recv consumes up to max available bytes and returns them (byte mode) or
// a nil slice with the count (modelled mode). Consuming advances the
// application-read pointer, which reopens the advertised window via a
// user event — recv() goes to hardware in F4T (§4.2.1).
func (c *Conn) Recv(max int) ([]byte, int) {
	n := c.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil, 0
	}
	var out []byte
	if ring := c.rxRing(); ring != nil {
		out = ring.ReadAt(c.readPtr, n)
	}
	c.readPtr = c.readPtr.Add(seqnum.Size(n))
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasRead: true, AppRead: c.readPtr}
	c.ep.Inject(c, &ev)
	return out, n
}

// The split-effect surface below mirrors softstack.Socket's: pure ring
// copies that are invisible to the simulation, separated from the
// Inject calls that advance protocol state. netapi performs the copies
// while simulated time is frozen and defers the Injects into one
// deterministic per-tick pass. Valid only once Established (pointers
// anchored).

// WritePtr returns the next send byte the app will queue.
func (c *Conn) WritePtr() seqnum.Value { return c.writePtr }

// ReadPtr returns the next received byte the app will consume.
func (c *Conn) ReadPtr() seqnum.Value { return c.readPtr }

// ReadAt copies delivered bytes starting at ptr into buf without
// consuming them (the consume is PostRecv). The caller must keep
// [ptr, ptr+len(buf)) within [readPtr, DeliveredTo).
func (c *Conn) ReadAt(ptr seqnum.Value, buf []byte) {
	if ring := c.rxRing(); ring != nil {
		ring.ReadInto(ptr, buf)
	}
}

// WriteAt stages payload bytes into the TX ring at ptr without injecting
// a user event (that is PostSend). The staged span must lie within the
// free send space above writePtr.
func (c *Conn) WriteAt(ptr seqnum.Value, data []byte) {
	if c.txRing != nil {
		c.txRing.WriteAt(ptr, data)
	}
}

// PostSend advances the REQ pointer to ptr with one user event (payload
// already staged via WriteAt). Always succeeds — the software stack has
// no command queue to fill; the bool return matches the softstack shape.
func (c *Conn) PostSend(ptr seqnum.Value) bool {
	if c.freed || c.closeCalled || ptr == c.writePtr {
		return true
	}
	c.writePtr = ptr
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasReq: true, Req: ptr}
	c.ep.Inject(c, &ev)
	return true
}

// PostRecv advances the consumed pointer to ptr, re-opening the
// advertised window (bytes up to ptr were already copied out via
// ReadAt).
func (c *Conn) PostRecv(ptr seqnum.Value) bool {
	if c.freed || ptr == c.readPtr {
		return true
	}
	c.readPtr = ptr
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, HasRead: true, AppRead: ptr}
	c.ep.Inject(c, &ev)
	return true
}

// Close initiates an orderly shutdown (FIN after queued data). It always
// succeeds — the software stack has no command queue to fill; the bool
// return matches the softstack shape.
func (c *Conn) Close() bool {
	if c.freed || c.closeCalled {
		return true
	}
	c.closeCalled = true
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlClose}
	c.ep.Inject(c, &ev)
	return true
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.freed {
		return
	}
	ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlAbort}
	c.ep.Inject(c, &ev)
}
