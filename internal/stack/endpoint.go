// Package stack implements a complete, passive TCP endpoint out of the
// shared pieces — tcpproc protocol engine, the datapath front end
// (parser, generator, ARP/ICMP), and the timer queue. It processes every
// event immediately when told to (per-event processing, no
// accumulation), which makes it both the protocol test harness and the
// core of the Linux software baseline; callers decide *when* work
// happens (immediately, or from a modelled CPU core) by choosing when to
// call HandlePacket/ExpireTimers.
//
// Above the endpoint sit the package's halves of the socket seam
// (package sock): Conn is a sock.Conn, Host queues the endpoint's
// notifications as one thread's sock.Host events, and Node is the
// simulation component that feeds an endpoint from a network.
package stack

import (
	"unsafe"

	"f4t/internal/cc"
	"f4t/internal/datapath"
	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
	"f4t/internal/timerq"
	"f4t/internal/wire"
)

// Options configures an endpoint.
type Options struct {
	IP         wire.Addr
	MAC        wire.MAC
	Cfg        tcpproc.Config
	Alg        string // congestion control algorithm name
	MaxFlows   int
	CarryBytes bool // allocate data rings and move real payload bytes
	Seed       uint64
}

// Endpoint is one host's TCP stack instance.
type Endpoint struct {
	K   *sim.Kernel
	Opt Options

	front  *datapath.Front // parser, generator, ARP, flow IDs and ISS, shared with the engine
	timers *timerq.Queue
	tx     func(*wire.Packet)
	owner  sim.Waker // the component whose Tick expires the timers

	conns     flow.Table[*Conn] // live rows are exactly the front's live flow IDs
	listeners map[uint16]func(*Conn)
	nextPort  uint16

	actions tcpproc.Actions // scratch, reused across processing passes

	// Stats.
	RxPkts, TxPkts      int64
	RxNoFlow, RxDropped int64
	RxOowRsts           int64 // inbound RSTs dropped by sequence validation
	FlowsRejected       int64 // opens refused: MaxFlows reached or flow table full
	ProcessedEvents     int64
}

// New builds an endpoint. tx is the wire transmit function (attach the
// link pipe's Send).
func New(k *sim.Kernel, opt Options, tx func(*wire.Packet)) *Endpoint {
	if opt.MaxFlows == 0 {
		opt.MaxFlows = 1024
	}
	if opt.Alg == "" {
		opt.Alg = "newreno"
	}
	if opt.Cfg.MSS == 0 {
		opt.Cfg = tcpproc.DefaultConfig()
	}
	e := &Endpoint{
		K:         k,
		Opt:       opt,
		timers:    timerq.New(),
		tx:        tx,
		listeners: make(map[uint16]func(*Conn)),
		nextPort:  ephemeralBase,
	}
	e.front = datapath.NewFront(opt.IP, opt.MAC, opt.Cfg, opt.MaxFlows, opt.CarryBytes,
		opt.Seed+1, opt.Seed+2, e.transmit, e.admit)
	return e
}

// SetWaker names the component that expires the endpoint's timers (a
// Node or a LinuxMachine): a timer armed while another component runs
// wakes it at the deadline.
func (e *Endpoint) SetWaker(w sim.Waker) { e.owner = w }

// SetTx replaces the transmit function (for late link attachment).
func (e *Endpoint) SetTx(tx func(*wire.Packet)) { e.tx = tx }

// LearnPeer installs a static ARP mapping (the testbeds are
// direct-connected, §5: "directly connecting" the NICs).
func (e *Endpoint) LearnPeer(ip wire.Addr, mac wire.MAC) { e.front.Learn(ip, mac) }

// Conns returns the number of live connections.
func (e *Endpoint) Conns() int { return e.front.Live() }

// VisitTCBs visits every live connection's TCB in ascending flow ID
// (conformance trackers; same shape as engine.VisitTCBs).
func (e *Endpoint) VisitTCBs(visit func(*flow.TCB)) {
	for id := 0; id < e.conns.Len(); id++ {
		if c := e.conns.Get(flow.ID(id)); c != nil {
			visit(&c.tcb)
		}
	}
}

// Listen registers an accept callback for a local port. The callback
// fires when a new passive connection reaches ESTABLISHED.
func (e *Endpoint) Listen(port uint16, accept func(*Conn)) {
	e.listeners[port] = accept
}

// ephemeralBase is the bottom of the ephemeral port range; allocation
// wraps back here instead of running through the well-known ports.
const ephemeralBase = 32768

// Dial starts an active open and returns the new connection. The
// three-way handshake proceeds in simulated time; completion sets
// Established and, on a Host's connection, queues EvConnected. Returns
// nil when every ephemeral port toward this remote endpoint is occupied
// by a live connection.
func (e *Endpoint) Dial(remote wire.Addr, remotePort uint16) *Conn {
	for i := 0; i < 65536-ephemeralBase; i++ {
		e.nextPort++
		if e.nextPort < ephemeralBase { // wrapped through 0
			e.nextPort = ephemeralBase
		}
		tuple := wire.FourTuple{
			LocalAddr: e.Opt.IP, RemoteAddr: remote,
			LocalPort: e.nextPort, RemotePort: remotePort,
		}
		if _, inUse := e.front.Lookup(tuple); inUse {
			continue
		}
		c := e.newConn(tuple, flow.StateClosed)
		if c == nil { // MaxFlows reached or flow table full (counted there)
			return nil
		}
		ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlOpen}
		e.Inject(c, &ev)
		return c
	}
	return nil
}

// newConn admits a connection through the front and allocates its Conn.
// It returns nil — with the rejection counted — when the endpoint is at
// MaxFlows or the flow table refuses the tuple; callers must abort the
// open cleanly (Dial returns nil, the front answers a SYN with a RST).
func (e *Endpoint) newConn(tuple wire.FourTuple, state flow.State) *Conn {
	tcb, tx, ok := e.front.Open(tuple, state, e.Opt.MaxFlows)
	if !ok {
		e.FlowsRejected++
		return nil
	}
	c := &Conn{ep: e, ID: tcb.FlowID, alg: cc.MustNew(e.Opt.Alg), txRing: tx, tcb: tcb}
	e.conns.Set(c.ID, c)
	return c
}

// admit opens a passive connection for a SYN to a listening port.
func (e *Endpoint) admit(pkt *wire.Packet) (listening, opened bool) {
	if _, listening = e.listeners[pkt.TCP.DstPort]; !listening {
		return false, false
	}
	c := e.newConn(pkt.Tuple(), flow.StateListen)
	if c == nil {
		return true, false
	}
	c.passive = true
	return true, true
}

// Inject queues one event for a connection and processes it immediately
// (per-event processing — the software stack has no accumulation
// hardware).
func (e *Endpoint) Inject(c *Conn, ev *flow.Event) {
	if c == nil {
		return
	}
	e.ProcessedEvents++
	var row flow.EventRow
	row.Accumulate(ev)
	row.MergeInto(&c.tcb)
	e.runProcess(c)
}

// runProcess executes one protocol pass and applies the resulting
// actions: packet generation, host notifications, timer sync.
func (e *Endpoint) runProcess(c *Conn) {
	e.actions.Reset()
	tcpproc.Process(&c.tcb, c.alg, &e.Opt.Cfg, e.K.NowNS(), &e.actions)

	for i := range e.actions.Segs {
		e.front.Emit(&e.actions.Segs[i], c.tcb.Tuple, c.txRing, e.transmit)
	}
	for i := range e.actions.Notes {
		e.applyNote(c, &e.actions.Notes[i])
	}
	if e.actions.OowRstDropped {
		e.RxOowRsts++
	}
	e.timers.SyncFromTCB(&c.tcb)
	// A timer armed outside the owner's Tick (an app's send, a driver's
	// close) must reach the owner's NextWork: wake it at the deadline.
	if !e.owner.Ticking() {
		e.owner.WakeAt(e.NextTimerCycle(e.K.Now()))
	}
	if e.actions.FreeFlow {
		e.free(c)
	}
}

func (e *Endpoint) transmit(pkt *wire.Packet) {
	e.TxPkts++
	if e.tx != nil {
		e.tx(pkt)
	}
}

// applyNote updates the connection's host-visible mirrors and queues
// the matching readiness event on its thread.
func (e *Endpoint) applyNote(c *Conn, n *tcpproc.Note) {
	switch n.Kind {
	case tcpproc.NoteEstablished:
		first := !c.established
		if first {
			c.anchor()
		}
		c.established = true
		// Passive connections announce themselves to the listener the
		// first time (the accept callback may adopt the connection onto a
		// Host, which queues EvAccepted; an active open reports
		// EvConnected instead).
		if acc := e.listeners[c.tcb.Tuple.LocalPort]; first && acc != nil && c.passive {
			acc(c)
		}
		if c.passive {
			c.notify(sock.EvAccepted)
		} else {
			c.notify(sock.EvConnected)
		}
	case tcpproc.NoteDataAcked:
		c.ackedTo = n.Seq
		c.notify(sock.EvWritable)
	case tcpproc.NoteDataDelivered:
		c.deliveredTo = n.Seq
		c.notify(sock.EvReadable)
	case tcpproc.NotePeerClosed:
		c.peerClosed = true
		c.notify(sock.EvHangup)
	case tcpproc.NoteReset:
		c.wasReset = true
	case tcpproc.NoteClosed:
		c.closed = true
		if c.host != nil {
			c.host.Events.PushLast(c)
		}
	}
}

// free releases all per-flow state and recycles the flow ID. The Conn
// itself stays valid for the application (its mirrors, tuple and TCB are
// read after free), but nothing reaches it by ID any more.
func (e *Endpoint) free(c *Conn) {
	e.front.Free(c.tcb.Tuple, c.ID)
	e.conns.Clear(c.ID)
	e.timers.Forget(c.ID)
	c.freed = true
}

// HandlePacket processes one received frame and takes ownership of it:
// the front answers what it owns (ARP, ICMP, resets, refused opens), a
// TCP event is processed at once, and a TCP frame is then recycled — the
// software substrate's one PutPacket site (wire/pool.go has the
// ownership rule).
func (e *Endpoint) HandlePacket(pkt *wire.Packet) {
	e.RxPkts++
	res, v := e.front.Receive(pkt)
	switch v {
	case datapath.Orphan:
		e.RxNoFlow++
	case datapath.Matched:
		if res.Dropped {
			e.RxDropped++
		}
		fallthrough
	case datapath.Admitted:
		if c := e.conns.Get(res.Event.Flow); c != nil {
			e.Inject(c, &res.Event)
		}
	}
	if pkt.Kind == wire.KindTCP {
		wire.PutPacket(pkt)
	}
}

// ExpireTimers fires all due timer events. Call it periodically (the
// harness ticks it every cycle). It is event-driven like the engine's
// timer module: while the earliest deadline is in the future, nothing is
// due and it returns without advancing the wheel.
func (e *Endpoint) ExpireTimers() {
	now := e.K.NowNS()
	if d := e.timers.NextDeadline(); d == 0 || d > now {
		return
	}
	e.timers.Expire(now, func(id flow.ID) *flow.TCB {
		if c := e.conns.Get(id); c != nil {
			return &c.tcb
		}
		return nil
	}, func(id flow.ID, kind uint8) {
		c := e.conns.Get(id)
		if c == nil {
			return
		}
		ev := flow.Event{Kind: flow.EvTimeout, Flow: id, Timeouts: kind}
		e.Inject(c, &ev)
	})
}

// Tick implements sim.Ticker so the endpoint can self-drive its timers
// in immediate mode.
func (e *Endpoint) Tick(int64) { e.ExpireTimers() }

// NextTimerCycle returns the cycle of the earliest pending timer
// deadline, or sim.Dormant when none: what a component driving the
// endpoint folds into its NextWork. A deadline already due reads as
// now+1, the tick whose ExpireTimers fires it.
func (e *Endpoint) NextTimerCycle(now int64) int64 {
	ns := e.timers.NextDeadline()
	if ns <= 0 {
		return sim.Dormant
	}
	if c := sim.NSToCycles(ns); c > now {
		return c
	}
	return now + 1
}

// TableStats exposes the flow table's occupancy and displacement
// counters (size, kicks, stash residency, resizes, refused inserts).
func (e *Endpoint) TableStats() datapath.CuckooStats { return e.front.TableStats() }

// InstrumentMem registers the endpoint's per-connection memory probes on
// a footprint accountant: connections (TCB inside) and their per-ID
// table, the timer module's Forget watermarks, and the parser's
// table/arena/reassembly storage.
func (e *Endpoint) InstrumentMem(fp *telemetry.Footprint, prefix string) {
	connBytes := int64(unsafe.Sizeof(Conn{}))
	fp.Add(prefix+".conns", func() (int64, int64) {
		n := int64(e.Conns())
		return n, n*connBytes + e.conns.MemBytes()
	})
	fp.Add(prefix+".timer_marks", func() (int64, int64) {
		return int64(e.Conns()), e.timers.MarkBytes()
	})
	e.front.InstrumentMem(fp, prefix)
}

// Ping sends an ICMP echo request (diagnostics parity with FtEngine).
func (e *Endpoint) Ping(ip wire.Addr, id, seq uint16, payload []byte) bool {
	return e.front.Ping(ip, id, seq, payload)
}
