package stack

import (
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Host is one application thread's socket surface over an Endpoint:
// sock.Host for the software stack. The endpoint notifies through
// per-connection callbacks fired inside packet and timer processing;
// Host is the one place those become an epoll-style event queue, the
// same sock.Queue softstack.Lib fills from completions.
type Host struct {
	ep    *Endpoint
	group []*Host // every thread of the endpoint; accepts route among them

	Events sock.Queue // fed by Endpoint.applyNote as notifications fire

	// OnAccept, when set, runs as a passive connection is routed to this
	// thread — at notification time, not at Poll, so what it does (the
	// Linux model bills connection setup) lands on the cycle the
	// handshake completed whatever the thread's polling cadence.
	OnAccept func()
}

// NewHosts returns n threads sharing the endpoint. A connection accepted
// on any thread's listener goes to the thread its flow hashes to
// (SO_REUSEPORT-style distribution, §4.6).
func NewHosts(ep *Endpoint, n int) []*Host {
	hs := make([]*Host, n)
	for i := range hs {
		hs[i] = &Host{ep: ep, group: hs}
	}
	return hs
}

// Dial implements sock.Host. It returns nil at MaxFlows, on a refused
// flow-table insert, or when the ephemeral ports toward remote are
// exhausted.
func (h *Host) Dial(remote wire.Addr, port uint16) sock.Conn {
	c := h.ep.Dial(remote, port)
	if c == nil {
		return nil // not c: a nil *Conn in a sock.Conn is not nil
	}
	c.host = h
	return c
}

// Listen implements sock.Host; the software stack never refuses.
func (h *Host) Listen(port uint16) bool {
	h.ep.Listen(port, h.accept)
	return true
}

// accept adopts a freshly established passive connection onto the
// thread its flow hashes to; the endpoint then queues EvAccepted there.
func (h *Host) accept(c *Conn) {
	t := h.group[c.TCB.Tuple.Hash()%uint64(len(h.group))]
	c.host = t
	if t.OnAccept != nil {
		t.OnAccept()
	}
}

// Poll implements sock.Host. Notifications queue as they fire, so there
// is nothing to drain first.
func (h *Host) Poll() []sock.Event { return h.Events.Take() }

// Pending implements sock.Host.
func (h *Host) Pending() bool { return h.Events.Len() > 0 }

// Node drives one Endpoint as a simulation component. Frames from the
// network queue and are processed on the node's own tick — a delivery
// may be a cross-shard injection running under a foreign slot, which
// must not synchronously schedule local timers, so responses transmit
// from Tick instead — and then the stack's timers expire.
type Node struct {
	ep    *Endpoint
	rxq   []*wire.Packet
	spare []*wire.Packet

	// Rider, when set, ticks after the endpoint every stepped cycle and
	// shares the node's NextWork (netapi's facade pump rides here so the
	// per-cycle order endpoint → facade is fixed).
	Rider sim.Sleeper
}

// NewNode wraps the endpoint; the caller registers the node on the
// endpoint's island and attaches DeliverPacket as the network sink.
func NewNode(ep *Endpoint) *Node { return &Node{ep: ep} }

// Endpoint exposes the stack (core.AttachSoft wires it to a network).
func (n *Node) Endpoint() *Endpoint { return n.ep }

// DeliverPacket is the network sink.
func (n *Node) DeliverPacket(p *wire.Packet) {
	n.rxq = append(n.rxq, p)
	n.ep.K.Wake(n)
}

// Tick implements sim.Ticker.
func (n *Node) Tick(cycle int64) {
	if len(n.rxq) > 0 {
		q := n.rxq
		n.rxq = n.spare[:0]
		for _, p := range q {
			n.ep.HandlePacket(p)
		}
		n.spare = q
	}
	n.ep.ExpireTimers()
	if n.Rider != nil {
		n.Rider.Tick(cycle)
	}
}

// NextWork implements sim.Sleeper: queued frames are due next cycle,
// timers at their deadline (a stale heap head costs one tick to pop);
// frames in flight arrive by kernel timer and wake the node.
func (n *Node) NextWork(now int64) int64 {
	if len(n.rxq) > 0 {
		return now + 1
	}
	next := sim.Dormant
	if n.Rider != nil {
		next = n.Rider.NextWork(now)
	}
	if ns := n.ep.NextTimerNS(); ns > 0 {
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
