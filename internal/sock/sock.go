// Package sock is the socket seam (§4.1.1, §4.6): the one non-blocking,
// POSIX-shaped connection and per-thread host surface that both stacks
// implement directly — *softstack.Socket / *softstack.Lib over an engine
// channel, *stack.Conn / *stack.Host over a software endpoint — so that
// everything above (CPU-cost gating in internal/host, the conformance
// harness, the blocking netapi facade) is written once and decorates
// this interface instead of re-adapting each substrate.
package sock

import (
	"math"

	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/wire"
)

// EventKind is an epoll-style readiness event.
type EventKind uint8

// Readiness events. A connection's first event is its one Connected or
// Accepted; then any number of Readable/Writable; then one Hangup per
// termination step (peer FIN, full close, reset), the last event of
// all. Nothing is Readable after a Hangup, but a half-closed sender may
// still see Writable.
const (
	EvConnected EventKind = iota // active open finished
	EvAccepted                   // new passive connection established
	EvReadable                   // new in-order data available
	EvWritable                   // send-buffer space released
	EvHangup                     // peer closed, connection closed, or reset
)

// Event is one epoll entry.
type Event struct {
	Kind EventKind
	Conn Conn
}

// Queue is the double-buffered readiness-event list both substrates
// fill (the library from completions, the software stack from its
// notifications) and a thread drains. It is a concrete type so that a
// host polling every cycle reads it without an interface call.
// It also deals its host's connection handles (Conn.Handle).
type Queue struct {
	events  []Event
	spare   []Event // the previous Take's slice, recycled by the next
	handles flow.IDs
	dying   []flow.ID // handles of queued last events, freed by the next Take
	reader  sim.Waker // the component that takes the events
}

// SetWaker names the component that takes the queue's events: every
// Push wakes it. A queue has one reader.
func (q *Queue) SetWaker(w sim.Waker) { q.reader = w }

// Open draws a handle for a connection becoming visible on this host.
func (q *Queue) Open() flow.ID {
	h, _ := q.handles.Alloc(math.MaxInt32)
	return h
}

// Handles is the number of handles drawn and not yet freed.
func (q *Queue) Handles() int { return q.handles.Live() }

// Push appends one event.
func (q *Queue) Push(kind EventKind, c Conn) {
	q.events = append(q.events, Event{Kind: kind, Conn: c})
	q.reader.Wake()
}

// PushLast appends c's terminal (closed or reset) EvHangup and retires
// its handle.
func (q *Queue) PushLast(c Conn) {
	q.Push(EvHangup, c)
	q.dying = append(q.dying, c.Handle())
}

// Len returns the number of events awaiting Take.
func (q *Queue) Len() int { return len(q.events) }

// Take returns the events pushed since the last Take and clears the
// list, freeing the handles retired by them. The slice is valid only
// until the next Take: the buffer handed out now becomes the
// accumulation target after it. Callers that iterate the events before
// taking again (every driver in the tree) never notice; nothing may
// retain the slice across takes.
func (q *Queue) Take() []Event {
	for _, h := range q.dying {
		q.handles.Free(h)
	}
	q.dying = q.dying[:0]
	out := q.events
	q.events = q.spare[:0]
	q.spare = out
	return out
}

// Conn is one connection's host-side handle: the mirror flags and
// window pointers the stack maintains, the whole-call Send/Recv, and
// their split halves. Nothing blocks; a call that cannot proceed (full
// buffer, full command queue) returns 0 or false and the caller retries.
type Conn interface {
	// Mirror flags, updated by stack notifications.
	Established() bool // handshake completed
	PeerClosed() bool  // the peer's FIN was delivered
	Closed() bool      // fully terminated
	WasReset() bool    // terminated by a reset

	// The four byte-stream pointers. Valid once Established.
	WritePtr() seqnum.Value    // next send byte the app will queue
	AckedTo() seqnum.Value     // send bytes below this are released
	ReadPtr() seqnum.Value     // next received byte the app will consume
	DeliveredTo() seqnum.Value // in-order received data boundary

	// Send queues up to len(data) bytes and returns the bytes accepted;
	// SendModelled queues n bytes without payload. Both return 0 after
	// Close.
	Send(data []byte) int
	SendModelled(n int) int
	// Recv consumes up to max in-order bytes (nil slice with the count
	// when the stack carries no payload).
	Recv(max int) ([]byte, int)
	Available() int // DeliveredTo − ReadPtr
	SendSpace() int // SendCap − (WritePtr − AckedTo), never negative
	SendCap() int   // send-buffer capacity in bytes

	// The split-effect surface: ReadAt/WriteAt are pure ring copies the
	// simulation cannot observe; PostSend/PostRecv advance the pointer
	// the stack acts on. False means "retry with the same ptr".
	ReadAt(ptr seqnum.Value, buf []byte)
	WriteAt(ptr seqnum.Value, data []byte)
	PostSend(ptr seqnum.Value) bool
	PostRecv(ptr seqnum.Value) bool

	// Close starts an orderly shutdown and reports whether it is in
	// flight (false: retry). Idempotent. Abort resets immediately.
	Close() bool
	Abort()

	LocalPort() uint16
	Remote() (wire.Addr, uint16)

	// Handle is the connection's index on its host, its fd: dense from 0,
	// drawn at a posted Dial or an accept, and freed by the Take that
	// returns its terminal EvHangup — so a reader mapping handles to
	// state never sees two connections on one handle in a batch, and a
	// Dial made before that Take cannot alias the queued hangup.
	Handle() flow.ID
}

// Host is one application thread's socket surface.
type Host interface {
	// Dial starts an active open. It returns nil — an untyped nil, never
	// a nil *Socket or *Conn — when the stack cannot take the connection
	// now (command queue full, flow table at its ceiling, ephemeral
	// ports exhausted); the caller retries later.
	Dial(remote wire.Addr, port uint16) Conn
	// Listen registers the thread as an acceptor; false means retry.
	Listen(port uint16) bool
	// Poll returns the readiness events since the previous call. The
	// slice is reused by the call after next: consume it before polling
	// again.
	Poll() []Event
	// Pending reports whether Poll has anything to do. It reads
	// simulation-side state only, so NextWork may depend on it.
	Pending() bool
}
