// Package sock is the socket seam (§4.1.1, §4.6): the one non-blocking,
// POSIX-shaped connection and per-thread host surface that both stacks
// implement directly — *softstack.Socket / *softstack.Lib over an engine
// channel, *stack.Conn / *stack.Host over a software endpoint — so that
// everything above (CPU-cost gating in internal/host, the conformance
// harness, the blocking netapi facade) is written once and decorates
// this interface instead of re-adapting each substrate.
package sock

import (
	"f4t/internal/seqnum"
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
type Queue struct {
	events []Event
	spare  []Event // the previous Take's slice, recycled by the next
}

// Push appends one event.
func (q *Queue) Push(kind EventKind, c Conn) {
	q.events = append(q.events, Event{Kind: kind, Conn: c})
}

// Len returns the number of events awaiting Take.
func (q *Queue) Len() int { return len(q.events) }

// Take returns the events pushed since the last Take and clears the
// list. The slice is valid only until the next Take: the buffer handed
// out now becomes the accumulation target after it. Callers that
// iterate the events before taking again (every driver in the tree)
// never notice; nothing may retain the slice across takes.
func (q *Queue) Take() []Event {
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
