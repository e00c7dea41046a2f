// Package softstack models the F4T library and runtime (§4.1.1, §4.6):
// the userspace layer that turns POSIX-style socket calls into 16 B
// commands on per-thread queues, polls completion queues (the software
// doorbell), maintains the small amount of host-side metadata (window
// pointers), and surfaces epoll-style readiness events.
//
// One Lib instance corresponds to one application thread and owns one
// command/completion queue pair, so the stack shares nothing across
// threads and needs no locks (§4.6).
package softstack

import (
	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/hostif"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Lib is one thread's F4T library instance. It implements sock.Host;
// its readiness events are the library's internal linked list of epoll
// entries (§4.1.1).
type Lib struct {
	k   *sim.Kernel
	eng *engine.Engine
	ch  *hostif.Channel

	socks     map[flow.ID]*Socket
	dialWait  map[uint16]*Socket // local port → socket awaiting CompAccepted
	listeners map[uint16]bool
	nextPort  uint16

	// Events holds readiness events already drained from the completion
	// queue but not yet taken by the application. CPU-costed drivers pair
	// PollOne (charged per completion) with Events.Take (free — the
	// events were already paid for).
	Events sock.Queue

	// Stats.
	CmdsPosted     int64
	CompsProcessed int64
	PostFailures   int64 // full command queue (blocking-API path)
}

// NewLib binds a library instance to channel chIdx of the engine.
func NewLib(k *sim.Kernel, eng *engine.Engine, chIdx int) *Lib {
	return &Lib{
		k:         k,
		eng:       eng,
		ch:        eng.Channels[chIdx],
		socks:     make(map[flow.ID]*Socket),
		dialWait:  make(map[uint16]*Socket),
		listeners: make(map[uint16]bool),
		nextPort:  uint16(10000 + chIdx*2000),
	}
}

// post sends one command, tracking queue-full back-offs.
func (l *Lib) post(cmd hostif.Command) bool {
	if !l.ch.Post(cmd) {
		l.PostFailures++
		return false
	}
	l.CmdsPosted++
	return true
}

// Listen registers this thread as an acceptor for the port
// (SO_REUSEPORT: several threads may listen on the same port, §4.6).
// It reports whether the listen command was posted (false = command
// queue full; the caller retries, as netapi's effect pass does).
func (l *Lib) Listen(port uint16) bool {
	l.listeners[port] = true
	return l.post(hostif.Command{Op: hostif.OpListen, LocalPort: port})
}

// Dial starts an active open and returns the socket (not yet
// established; poll for EvConnected). It returns nil when the command
// queue is full — the caller retries, as a blocking connect() would.
func (l *Lib) Dial(remote wire.Addr, remotePort uint16) sock.Conn {
	l.nextPort++
	s := &Socket{lib: l, localPort: l.nextPort, raddr: remote, rport: remotePort}
	if !l.post(hostif.Command{
		Op:         hostif.OpConnect,
		LocalPort:  l.nextPort,
		RemoteAddr: remote,
		RemotePort: remotePort,
	}) {
		return nil
	}
	l.dialWait[l.nextPort] = s
	return s
}

// Poll drains the completion queue (polling the software doorbell,
// §4.1.1), updates socket state, and returns every readiness event
// accumulated since the previous take (including those drained earlier
// via PollOne).
func (l *Lib) Poll() []sock.Event {
	for l.PollOne() {
	}
	return l.Events.Take()
}

// PollOne consumes a single completion; used by CPU-costed drivers that
// charge per completion. It reports whether one was available.
func (l *Lib) PollOne() bool {
	comp, ok := l.ch.PopCompletion()
	if !ok {
		return false
	}
	l.CompsProcessed++
	l.apply(comp)
	return true
}

// PendingCompletions exposes the completion backlog.
func (l *Lib) PendingCompletions() int { return l.ch.PendingCompletions() }

// Pending implements sock.Host: completions to drain or events to take.
func (l *Lib) Pending() bool { return l.ch.PendingCompletions() > 0 || l.Events.Len() > 0 }

func (l *Lib) apply(comp hostif.Completion) {
	switch comp.Kind {
	case hostif.CompAccepted:
		// Correlate an active open's hardware flow ID by local port.
		if s := l.dialWait[comp.Port]; s != nil {
			delete(l.dialWait, comp.Port)
			s.ID = comp.Flow
			l.socks[comp.Flow] = s
		}
	case hostif.CompEstablished:
		s := l.socks[comp.Flow]
		if s == nil {
			// Passive connection dispatched to this thread's queue.
			if !l.listeners[comp.Port] {
				return
			}
			s = &Socket{lib: l, ID: comp.Flow, localPort: comp.Port, passive: true}
			l.socks[comp.Flow] = s
		}
		s.anchor(comp.Seq, comp.Seq2)
		s.established = true
		if s.passive {
			l.Events.Push(sock.EvAccepted, s)
		} else {
			l.Events.Push(sock.EvConnected, s)
		}
	case hostif.CompAcked:
		if s := l.socks[comp.Flow]; s != nil {
			s.ackedTo = comp.Seq
			l.Events.Push(sock.EvWritable, s)
		}
	case hostif.CompDelivered:
		if s := l.socks[comp.Flow]; s != nil {
			s.deliveredTo = comp.Seq
			l.Events.Push(sock.EvReadable, s)
		}
	case hostif.CompPeerClosed:
		if s := l.socks[comp.Flow]; s != nil {
			s.peerClosed = true
			l.Events.Push(sock.EvHangup, s)
		}
	case hostif.CompClosed:
		if s := l.socks[comp.Flow]; s != nil {
			s.closed = true
			delete(l.socks, comp.Flow)
			l.Events.Push(sock.EvHangup, s)
		}
	case hostif.CompReset:
		// A reset that carries a port names an active open rejected
		// before any hardware flow ID existed (engine at MaxFlows): it is
		// correlated through dialWait like CompAccepted. That check must
		// come first — such completions leave Flow at its zero value, and
		// flow ID 0 is a legitimate connection.
		if s := l.dialWait[comp.Port]; comp.Port != 0 && s != nil {
			delete(l.dialWait, comp.Port)
			s.wasReset = true
			s.closed = true
			l.Events.Push(sock.EvHangup, s)
		} else if s := l.socks[comp.Flow]; s != nil {
			s.wasReset = true
			s.closed = true
			delete(l.socks, comp.Flow)
			l.Events.Push(sock.EvHangup, s)
		}
	}
}

// Socket is the host-side connection handle: the window-pointer metadata
// the library keeps ("only a handful amount of metadata, such as TCP
// window pointers, are stored and managed in the software", §4.1.1).
type Socket struct {
	lib *Lib
	ID  flow.ID

	// The peer: known at Dial; an accepted socket reads it off the
	// hardware flow the first time it is asked. (Placed with the ports so
	// Socket stays in the 48 B size class.)
	raddr     wire.Addr
	rport     uint16
	localPort uint16
	passive   bool
	anchored  bool

	writePtr    seqnum.Value // next send byte the app will queue
	ackedTo     seqnum.Value // device-released send boundary
	readPtr     seqnum.Value // next received byte the app will consume
	deliveredTo seqnum.Value // device-announced in-order boundary

	established bool
	peerClosed  bool
	closed      bool
	wasReset    bool
	closeSent   bool
}

// Established reports handshake completion.
func (s *Socket) Established() bool { return s.established }

// PeerClosed reports a delivered peer FIN.
func (s *Socket) PeerClosed() bool { return s.peerClosed }

// Closed reports full termination.
func (s *Socket) Closed() bool { return s.closed }

// WasReset reports termination by a reset.
func (s *Socket) WasReset() bool { return s.wasReset }

// LocalPort returns the port this socket is bound to.
func (s *Socket) LocalPort() uint16 { return s.localPort }

// Remote returns the peer's address and port. An accepted socket reads
// them off the hardware flow's tuple the first time it is asked (zero
// once the flow is gone).
func (s *Socket) Remote() (wire.Addr, uint16) {
	if s.raddr == 0 {
		if t := s.lib.eng.TCB(s.ID); t != nil {
			s.raddr, s.rport = t.Tuple.RemoteAddr, t.Tuple.RemotePort
		}
	}
	return s.raddr, s.rport
}

// SendCap returns the send-buffer capacity (the engine's TX ring).
func (s *Socket) SendCap() int { return int(s.lib.eng.TxRingSize()) }

func (s *Socket) anchor(sndBase, rcvBase seqnum.Value) {
	if s.anchored {
		return
	}
	s.anchored = true
	s.writePtr = sndBase
	s.ackedTo = sndBase
	s.readPtr = rcvBase
	s.deliveredTo = rcvBase
}

// SendSpace returns free send-buffer bytes.
func (s *Socket) SendSpace() int {
	if !s.anchored {
		return 0
	}
	used := int(s.writePtr.DistanceFrom(s.ackedTo))
	space := s.SendCap() - used
	if space < 0 {
		space = 0
	}
	return space
}

// Send queues up to len(data) bytes: copy into the TX hugepage ring,
// advance the REQ pointer, post one 16 B Send command carrying the
// pointer (§4.2.1). Returns bytes accepted (0 when the buffer or the
// command queue is full — the non-blocking EAGAIN path, §4.1.1).
func (s *Socket) Send(data []byte) int {
	return s.send(len(data), data)
}

// SendModelled queues n bytes without payload (modelled-only transfers).
func (s *Socket) SendModelled(n int) int {
	return s.send(n, nil)
}

func (s *Socket) send(n int, data []byte) int {
	if !s.established || s.closed || s.closeSent || n <= 0 {
		return 0
	}
	if space := s.SendSpace(); n > space {
		n = space
	}
	if n <= 0 {
		return 0
	}
	if data != nil {
		if ring := s.lib.eng.TxRing(s.ID); ring != nil {
			ring.WriteAt(s.writePtr, data[:n])
		}
	}
	ptr := s.writePtr.Add(seqnum.Size(n))
	if !s.lib.post(hostif.Command{Op: hostif.OpSend, Flow: s.ID, Ptr: ptr}) {
		return 0
	}
	s.writePtr = ptr
	return n
}

// Available returns in-order received bytes not yet consumed.
func (s *Socket) Available() int {
	if !s.anchored {
		return 0
	}
	return int(s.deliveredTo.DistanceFrom(s.readPtr))
}

// Recv consumes up to max bytes: read from the RX hugepage ring, advance
// the consumed pointer, post one Recv command so the hardware can
// re-open the advertised window.
func (s *Socket) Recv(max int) ([]byte, int) {
	n := s.Available()
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil, 0
	}
	var out []byte
	if ring := s.lib.eng.RxRing(s.ID); ring != nil {
		out = ring.ReadAt(s.readPtr, n)
	}
	ptr := s.readPtr.Add(seqnum.Size(n))
	if !s.lib.post(hostif.Command{Op: hostif.OpRecv, Flow: s.ID, Ptr: ptr}) {
		return nil, 0
	}
	s.readPtr = ptr
	return out, n
}

// The split-effect surface below separates each Send/Recv into its
// pure-copy half and its command-posting half. netapi's blocking bridge
// needs the split: ring copies are invisible to the simulation (the
// engine never reads TX bytes beyond the posted REQ pointer, never
// rewrites RX bytes below the delivered pointer), so the facade performs
// them immediately while simulated time is frozen, but defers the
// pointer-advancing command posts into one deterministic per-tick pass.

// WritePtr returns the next send byte the app will queue.
func (s *Socket) WritePtr() seqnum.Value { return s.writePtr }

// AckedTo returns the device-released send boundary.
func (s *Socket) AckedTo() seqnum.Value { return s.ackedTo }

// ReadPtr returns the next received byte the app will consume.
func (s *Socket) ReadPtr() seqnum.Value { return s.readPtr }

// DeliveredTo returns the device-announced in-order boundary.
func (s *Socket) DeliveredTo() seqnum.Value { return s.deliveredTo }

// ReadAt copies delivered bytes starting at ptr into buf without
// consuming them (the consume is PostRecv). The caller must keep
// [ptr, ptr+len(buf)) within [readPtr, deliveredTo).
func (s *Socket) ReadAt(ptr seqnum.Value, buf []byte) {
	if ring := s.lib.eng.RxRing(s.ID); ring != nil {
		ring.ReadInto(ptr, buf)
	}
}

// WriteAt stages payload bytes into the TX ring at ptr without posting a
// send command (that is PostSend). The caller must keep the staged span
// within the free send space above writePtr.
func (s *Socket) WriteAt(ptr seqnum.Value, data []byte) {
	if ring := s.lib.eng.TxRing(s.ID); ring != nil {
		ring.WriteAt(ptr, data)
	}
}

// PostSend advances the REQ pointer to ptr with one Send command
// (payload already staged via WriteAt). Reports false when the command
// queue is full; the caller retries with the same ptr.
func (s *Socket) PostSend(ptr seqnum.Value) bool {
	if !s.established || s.closed || s.closeSent || ptr == s.writePtr {
		return true // nothing to do (or no longer possible: don't spin)
	}
	if !s.lib.post(hostif.Command{Op: hostif.OpSend, Flow: s.ID, Ptr: ptr}) {
		return false
	}
	s.writePtr = ptr
	return true
}

// PostRecv advances the consumed pointer to ptr with one Recv command,
// re-opening the advertised window (bytes up to ptr were already copied
// out via ReadAt). Reports false when the command queue is full.
func (s *Socket) PostRecv(ptr seqnum.Value) bool {
	if s.closed || ptr == s.readPtr {
		return true
	}
	if !s.lib.post(hostif.Command{Op: hostif.OpRecv, Flow: s.ID, Ptr: ptr}) {
		return false
	}
	s.readPtr = ptr
	return true
}

// Close posts an orderly shutdown. It reports whether the close is in
// flight (or already done); false means the command queue was full and
// the caller should retry.
func (s *Socket) Close() bool {
	if s.closeSent || s.closed {
		return true
	}
	if s.lib.post(hostif.Command{Op: hostif.OpClose, Flow: s.ID}) {
		s.closeSent = true
	}
	return s.closeSent
}

// Abort posts an immediate reset.
func (s *Socket) Abort() {
	s.lib.post(hostif.Command{Op: hostif.OpAbort, Flow: s.ID})
}
