package stack

import (
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Host is one application thread's socket surface over an Endpoint:
// sock.Host for the software stack. The endpoint's notifications, raised
// inside packet and timer processing, queue here as epoll-style events —
// the same sock.Queue softstack.Lib fills from completions — and that
// queue is the only way out of the stack: nothing the application does
// runs until it polls.
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

// Node drives one machine's endpoints as a simulation component. Frames
// from the network queue and are processed on the node's own tick — a
// delivery may be a cross-shard injection running under a foreign slot,
// which must not synchronously schedule local timers, so responses
// transmit from Tick instead — and then the stacks' timers expire. A
// node with several endpoints (the churn rig's client addresses behind
// one link) hands each frame to the owner of its destination address.
type Node struct {
	eps   []*Endpoint
	byIP  map[wire.Addr]*Endpoint // nil with one endpoint: it takes every frame
	rxq   []*wire.Packet
	spare []*wire.Packet

	DemuxDrops int64 // frames for an address no endpoint of the node owns

	// Rider, when set, ticks after the endpoints every stepped cycle and
	// shares the node's NextWork: the machine's application, so the
	// per-cycle order stack → app is fixed (netapi's pump, churn's server).
	Rider sim.Sleeper
}

// NewNode wraps endpoints of one kernel; the caller registers the node
// on their island and attaches DeliverPacket as the network sink.
func NewNode(eps ...*Endpoint) *Node {
	n := &Node{eps: eps}
	if len(eps) > 1 {
		n.byIP = make(map[wire.Addr]*Endpoint, len(eps))
		for _, ep := range eps {
			n.byIP[ep.Opt.IP] = ep
		}
	}
	return n
}

// Endpoint exposes the first (usually only) stack, for core.AttachSoft.
func (n *Node) Endpoint() *Endpoint { return n.eps[0] }

// DeliverPacket is the network sink.
func (n *Node) DeliverPacket(p *wire.Packet) {
	n.rxq = append(n.rxq, p)
	n.eps[0].K.Wake(n)
}

// Tick implements sim.Ticker.
func (n *Node) Tick(cycle int64) {
	if len(n.rxq) > 0 {
		q := n.rxq
		n.rxq = n.spare[:0]
		for _, p := range q {
			if ep := n.owner(p); ep != nil {
				ep.HandlePacket(p)
			} else {
				n.DemuxDrops++
			}
		}
		n.spare = q
	}
	for _, ep := range n.eps {
		ep.ExpireTimers()
	}
	if n.Rider != nil {
		n.Rider.Tick(cycle)
	}
}

// owner returns the endpoint a frame is addressed to: by IP destination,
// or for ARP (no IP header) by the address being resolved.
func (n *Node) owner(p *wire.Packet) *Endpoint {
	if n.byIP == nil {
		return n.eps[0]
	}
	if p.Kind == wire.KindARP {
		return n.byIP[p.ARP.TargetIP]
	}
	return n.byIP[p.IP.Dst]
}

// NextWork implements sim.Sleeper: queued frames are due next cycle,
// timers at their deadline; frames in flight arrive by kernel timer and
// wake the node.
func (n *Node) NextWork(now int64) int64 {
	if len(n.rxq) > 0 {
		return now + 1
	}
	next := sim.Dormant
	if n.Rider != nil {
		next = n.Rider.NextWork(now)
	}
	for _, ep := range n.eps {
		if c := ep.NextTimerCycle(now); c < next {
			next = c
		}
	}
	return next
}
