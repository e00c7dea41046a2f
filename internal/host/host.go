// Package host provides the application-facing view of a machine: CPU
// cores running application threads that reach the network through
// either the Linux software TCP stack or the F4T library. Applications
// (internal/apps) are written once against Thread/Conn and run unchanged
// on both stacks — the reproduction's equivalent of F4T's unmodified-
// application property (§4.1.1).
//
// Every socket operation is gated on the thread's CPU core and charged
// per the calibrated cost table, so throughput differences between the
// stacks emerge from cycle accounting, not from hard-coded ratios.
package host

import (
	"f4t/internal/cpu"
	"f4t/internal/seqnum"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// ConnEventKind is a readiness notification delivered to the app.
type ConnEventKind = sock.EventKind

// Readiness events.
const (
	EvConnected = sock.EvConnected
	EvAccepted  = sock.EvAccepted
	EvReadable  = sock.EvReadable
	EvWritable  = sock.EvWritable
	EvHangup    = sock.EvHangup
)

// ConnEvent pairs an event with its connection.
type ConnEvent struct {
	Kind ConnEventKind
	Conn Conn
}

// Conn is one connection as the application sees it. TrySend/TryRecv
// charge CPU cost on the owning thread's core and fail (return 0) when
// the core is busy, the buffer is full, or the command queue is full —
// the app retries on its next scheduling opportunity, exactly like a
// non-blocking socket loop.
type Conn interface {
	// TrySend queues up to n bytes (payload may be nil for modelled
	// transfers) and returns the bytes accepted, charging CPU cost.
	TrySend(n int, payload []byte) int
	// TryRecv consumes up to max received bytes, charging CPU cost, and
	// returns the bytes consumed (payload retrieval is modelled).
	TryRecv(max int) int
	// SendQueued is TrySend for work that continues a burst the app has
	// already begun on its core: the cost queues behind the core's
	// current work instead of failing (e.g. the response send at the end
	// of one HTTP request's handling).
	SendQueued(n int, payload []byte) int
	// RecvQueued is TryRecv with queued-cost semantics.
	RecvQueued(max int) int
	// Available returns in-order bytes ready to consume (no CPU charge —
	// the app already knows from the readiness event).
	Available() int
	// SendSpace returns free send-buffer bytes.
	SendSpace() int
	// Close starts an orderly shutdown (charges CPU cost when possible).
	Close()
	// Established reports handshake completion.
	Established() bool
	// PeerClosed reports a received FIN.
	PeerClosed() bool
	// Closed reports full termination.
	Closed() bool
}

// Thread is one application thread pinned to one core with its own
// channel to the stack (per-thread command queues, SO_REUSEPORT — §4.6).
type Thread interface {
	// Core returns the CPU core this thread runs on; apps charge their
	// own application-level work here.
	Core() *cpu.Core
	// Dial starts an active open (charges connection-setup cost). It may
	// return nil when the stack cannot accept a new connection right now
	// (full command queue); callers retry on a later cycle.
	Dial(remoteIdx int, port uint16) Conn
	// Listen registers this thread as an acceptor for the port.
	Listen(port uint16)
	// Poll delivers pending readiness events, charging per-event cost.
	// The returned slice is valid until the next call.
	Poll() []ConnEvent
	// EventsPending reports whether the next Poll would deliver events.
	// It is free: apps gate Poll on it and report themselves idle to the
	// skipping kernel when it is false.
	EventsPending() bool
}

// Machine is one host: a set of threads (one per core) on one stack.
type Machine interface {
	Threads() []Thread
	// Pool exposes the CPU pool for utilization accounting.
	Pool() *cpu.Pool
}

// call names a socket call for the cost model.
type call uint8

const (
	callDial call = iota
	callListen
	callPoll // a Poll that returns events
	callSend
	callRecv
	callClose
)

// costModel is where the two machines differ (§2.2 vs §4.6).
type costModel interface {
	// bill charges one socket call to the thread's core: what it costs
	// and which bucket it lands in. s and n (the connection and byte
	// count) are set for callSend and callRecv only. The cost queues
	// behind the core's current work; refusing a Try* call on a busy core
	// is the shared gate's job.
	bill(t *thread, op call, s sock.Conn, n int)
	// wrap builds the machine's app-facing connection around s.
	wrap(t *thread, s sock.Conn) Conn
}

// thread is one application thread of either machine: its stack's
// sock.Host decorated with CPU-cost gating. Events come straight off the
// host's queue rather than through Poll, because each machine bills the
// drain itself (F4T per completion in Tick, Linux per packet in softirq
// context): by the time the app polls, the events are paid for.
type thread struct {
	idx     int
	core    *cpu.Core
	host    sock.Host
	events  *sock.Queue // host's queue
	cost    costModel
	remotes []wire.Addr // Dial's remoteIdx → peer address

	conns     map[sock.Conn]Conn
	evScratch []ConnEvent // Poll's reusable translation buffer
}

func newThread(idx int, core *cpu.Core, host sock.Host, events *sock.Queue, cost costModel, remotes []wire.Addr) Thread {
	return &thread{idx: idx, core: core, host: host, events: events, cost: cost, remotes: remotes, conns: make(map[sock.Conn]Conn)}
}

// Core implements Thread.
func (t *thread) Core() *cpu.Core { return t.core }

// EventsPending implements Thread.
func (t *thread) EventsPending() bool { return t.events.Len() > 0 }

// Dial implements Thread. It returns nil when the stack cannot take the
// connection now (full command queue, flow ceiling); retry later.
func (t *thread) Dial(remoteIdx int, port uint16) Conn {
	t.cost.bill(t, callDial, nil, 0)
	s := t.host.Dial(t.remotes[remoteIdx], port)
	if s == nil {
		return nil
	}
	c := t.cost.wrap(t, s)
	t.conns[s] = c
	return c
}

// Listen implements Thread.
func (t *thread) Listen(port uint16) {
	t.cost.bill(t, callListen, nil, 0)
	t.host.Listen(port)
}

// Poll implements Thread: pair each readiness event with the app-facing
// connection. The returned slice is reused by the next Poll; apps
// consume events before polling again.
func (t *thread) Poll() []ConnEvent {
	evs := t.events.Take()
	if len(evs) == 0 {
		return nil
	}
	t.cost.bill(t, callPoll, nil, 0)
	out := t.evScratch[:0]
	for _, ev := range evs {
		c := t.conns[ev.Conn]
		if c == nil {
			c = t.cost.wrap(t, ev.Conn)
			t.conns[ev.Conn] = c
		}
		if ev.Kind == EvHangup {
			delete(t.conns, ev.Conn)
		}
		out = append(out, ConnEvent{Kind: ev.Kind, Conn: c})
	}
	t.evScratch = out
	return out
}

// gate is the billed half of an app-facing connection, written once for
// both machines: every call that reaches the stack is charged to the
// thread's core first. The free half — the mirror reads Established,
// Available, SendSpace… that apps make on every flow every cycle — is
// each machine's own two-line type embedding its stack's concrete
// connection next to the gate, so those stay static, inlinable calls
// (through a sock.Conn they cost http_f4t 15 % of its wall clock).
type gate struct {
	s  sock.Conn
	th *thread
}

// TrySend implements Conn.
func (g *gate) TrySend(n int, payload []byte) int { return g.send(n, payload, true) }

// SendQueued implements Conn.
func (g *gate) SendQueued(n int, payload []byte) int { return g.send(n, payload, false) }

// TryRecv implements Conn.
func (g *gate) TryRecv(max int) int { return g.recv(max, true) }

// RecvQueued implements Conn.
func (g *gate) RecvQueued(max int) int { return g.recv(max, false) }

func (g *gate) send(n int, payload []byte, try bool) int {
	if try && !g.th.core.Free() {
		return 0
	}
	g.th.cost.bill(g.th, callSend, g.s, n)
	if payload != nil {
		return g.s.Send(payload[:n])
	}
	return g.s.SendModelled(n)
}

func (g *gate) recv(max int, try bool) int {
	n := g.s.Available()
	if n > max {
		n = max
	}
	if n <= 0 || try && !g.th.core.Free() {
		return 0
	}
	g.th.cost.bill(g.th, callRecv, g.s, n)
	// Apps take the byte count only, so consume through the count-only
	// half of the seam: Recv would copy the payload out of the ring into
	// a fresh slice (with CarryBytes on, one allocation per read) just to
	// have it dropped here.
	ptr := g.s.ReadPtr().Add(seqnum.Size(n))
	if !g.s.PostRecv(ptr) {
		return 0 // command queue full: nothing consumed, the caller retries
	}
	if g.s.ReadPtr() == ptr {
		return n
	}
	// PostRecv declines to advance a closed socket or a freed connection;
	// Recv still consumes there.
	_, got := g.s.Recv(n)
	return got
}

// close is Conn's Close (the app-facing close bills the core and has no
// retry to report, so each connection type shadows its stack's with it).
func (g *gate) close() {
	g.th.cost.bill(g.th, callClose, nil, 0)
	g.s.Close()
}
