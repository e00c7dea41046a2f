// Package stack implements a complete, passive TCP endpoint out of the
// shared pieces — tcpproc protocol engine, datapath parser/generator,
// ARP/ICMP, and the timer queue. It processes every event immediately
// when told to (per-event processing, no accumulation), which makes it
// both the protocol test harness and the core of the Linux software
// baseline; callers decide *when* work happens (immediately, or from a
// modelled CPU core) by choosing when to call HandlePacket/ExpireTimers.
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
	"f4t/internal/seqnum"
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

	parser *datapath.Parser
	gen    *datapath.Generator
	arp    *datapath.ARP
	timers *timerq.Queue
	tx     func(*wire.Packet)

	conns     map[flow.ID]*Conn
	listeners map[uint16]func(*Conn)
	nextID    flow.ID
	nextPort  uint16
	rng       *sim.Rand

	// Packets awaiting ARP resolution, per next-hop address.
	arpWait map[wire.Addr][]*wire.Packet

	actions tcpproc.Actions // scratch, reused across processing passes

	// Stats.
	RxPkts, TxPkts       int64
	RxNoFlow, RxDropped  int64
	RxOowRsts            int64 // inbound RSTs dropped by sequence validation
	FlowsRejected        int64 // opens refused: MaxFlows reached or flow table full
	ProcessedEvents      int64
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
		parser:    datapath.NewParser(opt.MaxFlows, opt.Cfg.RcvBuf, opt.Cfg.WndScale, opt.Seed+1),
		gen:       datapath.NewGenerator(opt.Cfg.MSS, opt.Cfg.WndScale),
		arp:       datapath.NewARP(opt.IP, opt.MAC),
		timers:    timerq.New(),
		tx:        tx,
		conns:     make(map[flow.ID]*Conn),
		listeners: make(map[uint16]func(*Conn)),
		rng:       sim.NewRand(opt.Seed + 2),
		arpWait:   make(map[wire.Addr][]*wire.Packet),
		nextPort:  ephemeralBase,
	}
	if opt.Cfg.ECN {
		e.gen.EnableECN()
	}
	return e
}

// SetTx replaces the transmit function (for late link attachment).
func (e *Endpoint) SetTx(tx func(*wire.Packet)) { e.tx = tx }

// LearnPeer installs a static ARP mapping (the testbeds are
// direct-connected, §5: "directly connecting" the NICs).
func (e *Endpoint) LearnPeer(ip wire.Addr, mac wire.MAC) { e.arp.Learn(ip, mac) }

// Conns returns the number of live connections.
func (e *Endpoint) Conns() int { return len(e.conns) }

// VisitTCBs visits every live connection's TCB (conformance trackers;
// same shape as engine.VisitTCBs). Iteration order is unspecified.
func (e *Endpoint) VisitTCBs(visit func(*flow.TCB)) {
	for _, c := range e.conns {
		visit(c.TCB)
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
		if _, inUse := e.parser.Lookup(tuple); inUse {
			continue
		}
		c := e.newConn(tuple)
		if c == nil { // MaxFlows reached or flow table full (counted there)
			return nil
		}
		ev := flow.Event{Kind: flow.EvUser, Flow: c.ID, Ctl: flow.CtlOpen}
		e.Inject(c, &ev)
		return c
	}
	return nil
}

// newConn allocates connection state and registers the flow. It returns
// nil — with the rejection counted — when the endpoint is at MaxFlows or
// the flow table refuses the tuple; callers must abort the open cleanly
// (Dial returns nil, the passive path answers the SYN with a RST).
func (e *Endpoint) newConn(tuple wire.FourTuple) *Conn {
	if len(e.conns) >= e.Opt.MaxFlows {
		e.FlowsRejected++
		return nil
	}
	e.nextID++
	id := e.nextID
	iss := seqnum.Value(e.rng.Uint32())
	t := &flow.TCB{
		FlowID: id,
		Tuple:  tuple,
		State:  flow.StateClosed,
		ISS:    iss,
		SndUna: iss, SndNxt: iss, Req: iss,
		RcvBuf: e.Opt.Cfg.RcvBuf,
	}
	t.AckedToHost = iss.Add(1)
	var rxRing, txRing *datapath.Ring
	if e.Opt.CarryBytes {
		size := 1
		for size < int(e.Opt.Cfg.RcvBuf)*2 {
			size <<= 1
		}
		rxRing = datapath.NewRing(size)
		txRing = datapath.NewRing(size)
	}
	c := &Conn{
		ep:     e,
		ID:     id,
		TCB:    t,
		alg:    cc.MustNew(e.Opt.Alg),
		txRing: txRing,
	}
	c.meta = datapath.FlowMeta{Tuple: tuple, LocalMAC: e.Opt.MAC}
	if !e.parser.Register(tuple, id, rxRing) {
		e.FlowsRejected++
		return nil
	}
	e.conns[id] = c
	return c
}

// Inject queues one event for a connection and processes it immediately
// (per-event processing — the software stack has no accumulation
// hardware).
func (e *Endpoint) Inject(c *Conn, ev *flow.Event) {
	if c == nil || c.TCB == nil {
		return
	}
	e.ProcessedEvents++
	var row flow.EventRow
	row.Accumulate(ev)
	row.MergeInto(c.TCB)
	e.runProcess(c)
}

// runProcess executes one protocol pass and applies the resulting
// actions: packet generation, host notifications, timer sync.
func (e *Endpoint) runProcess(c *Conn) {
	e.actions.Reset()
	tcpproc.Process(c.TCB, c.alg, &e.Opt.Cfg, e.K.NowNS(), &e.actions)

	for i := range e.actions.Segs {
		e.emitSegment(c, &e.actions.Segs[i])
	}
	for i := range e.actions.Notes {
		e.applyNote(c, &e.actions.Notes[i])
	}
	if e.actions.OowRstDropped {
		e.RxOowRsts++
	}
	e.timers.SyncFromTCB(c.TCB)
	if e.actions.FreeFlow {
		e.free(c)
	}
}

// emitSegment expands a SendOp into packets and transmits them, resolving
// the destination MAC (static or via ARP) first.
func (e *Endpoint) emitSegment(c *Conn, op *tcpproc.SendOp) {
	mac, req, ok := e.arp.Resolve(c.meta.Tuple.RemoteAddr)
	var fetch datapath.PayloadFetch
	if c.txRing != nil {
		ring := c.txRing
		fetch = func(seq seqnum.Value, buf []byte) { ring.ReadInto(seq, buf) }
	}
	if !ok {
		// Build the packets now but park them until the ARP reply.
		meta := c.meta // MAC still zero; fixed at flush time
		e.gen.Build(*op, meta, fetch, func(p *wire.Packet) {
			e.arpWait[c.meta.Tuple.RemoteAddr] = append(e.arpWait[c.meta.Tuple.RemoteAddr], p)
		})
		if req != nil {
			e.transmit(req)
		}
		return
	}
	c.meta.PeerMAC = mac
	e.gen.Build(*op, c.meta, fetch, e.transmit)
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
		c.established = true
		// Passive connections announce themselves to the listener now
		// (the accept callback may adopt the connection onto a Host, which
		// queues EvAccepted; an active open reports EvConnected instead).
		if !c.accepted {
			c.accepted = true
			if acc := e.listeners[c.meta.Tuple.LocalPort]; acc != nil && c.passive {
				acc(c)
			}
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
		c.notify(sock.EvHangup)
	}
}

// free releases all per-flow state.
func (e *Endpoint) free(c *Conn) {
	e.parser.Deregister(c.meta.Tuple, c.ID)
	delete(e.conns, c.ID)
	c.freed = true
}

// HandlePacket processes one received frame and takes ownership of it:
// ARP and ICMP are answered in place; a TCP frame is parsed into an
// event, processed and recycled — the software substrate's one
// PutPacket site (wire/pool.go has the ownership rule).
func (e *Endpoint) HandlePacket(pkt *wire.Packet) {
	e.RxPkts++
	switch pkt.Kind {
	case wire.KindARP:
		if reply := e.arp.Handle(pkt); reply != nil {
			e.transmit(reply)
		}
		e.flushARPWait(pkt.ARP.SenderIP)
	case wire.KindICMP:
		if reply := datapath.HandleICMP(pkt, e.Opt.IP, e.Opt.MAC); reply != nil {
			e.transmit(reply)
		}
	default:
		e.handleTCP(pkt)
		wire.PutPacket(pkt)
	}
}

// handleTCP runs one TCP frame through the parser and the protocol.
func (e *Endpoint) handleTCP(pkt *wire.Packet) {
	res := e.parser.Parse(pkt)
	if res.NoFlow {
		// New passive connection? Only a SYN to a listening port counts.
		if pkt.TCP.Flags&wire.FlagSYN != 0 && pkt.TCP.Flags&wire.FlagACK == 0 {
			if _, listening := e.listeners[pkt.TCP.DstPort]; listening {
				c := e.newConn(pkt.Tuple())
				if c == nil {
					// Endpoint full: refuse the open with a RST so the
					// client aborts instead of retransmitting its SYN.
					e.sendRST(pkt)
					return
				}
				c.passive = true
				c.TCB.State = flow.StateListen
				c.meta.PeerMAC = pkt.Eth.Src
				e.arp.Learn(pkt.IP.Src, pkt.Eth.Src)
				if res = e.parser.Parse(pkt); !res.NoFlow {
					e.Inject(c, &res.Event)
				}
				return
			}
		}
		e.RxNoFlow++
		// RFC 793: a segment to a non-existent connection draws a RST.
		if pkt.TCP.Flags&wire.FlagRST == 0 {
			e.sendRST(pkt)
		}
		return
	}
	if res.Dropped {
		e.RxDropped++
	}
	if c := e.conns[res.Event.Flow]; c != nil {
		e.Inject(c, &res.Event)
	}
}

// flushARPWait transmits packets parked for the now-resolved address.
func (e *Endpoint) flushARPWait(ip wire.Addr) {
	pkts := e.arpWait[ip]
	if len(pkts) == 0 {
		return
	}
	delete(e.arpWait, ip)
	mac, _, ok := e.arp.Resolve(ip)
	if !ok {
		return
	}
	for _, p := range pkts {
		p.Eth.Dst = mac
		e.transmit(p)
	}
}

// sendRST answers an orphan segment with the RFC 793 §3.4 reset.
func (e *Endpoint) sendRST(pkt *wire.Packet) {
	if rst := datapath.OrphanRST(pkt, e.Opt.IP, e.Opt.MAC); rst != nil {
		e.transmit(rst)
	}
}

// ExpireTimers fires all due timer events. Call it periodically (the
// harness ticks it every cycle; the heap peek is O(1) when idle).
func (e *Endpoint) ExpireTimers() {
	now := e.K.NowNS()
	e.timers.Expire(now, func(id flow.ID) *flow.TCB {
		if c := e.conns[id]; c != nil {
			return c.TCB
		}
		return nil
	}, func(id flow.ID, kind uint8) {
		c := e.conns[id]
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
func (e *Endpoint) TableStats() datapath.CuckooStats { return e.parser.TableStats() }

// InstrumentMem registers the endpoint's per-connection memory probes on
// a footprint accountant: connection control blocks plus the parser's
// table/arena/reassembly storage.
func (e *Endpoint) InstrumentMem(fp *telemetry.Footprint, prefix string) {
	connBytes := int64(unsafe.Sizeof(Conn{}) + unsafe.Sizeof(flow.TCB{}))
	fp.Add(prefix+".conns", func() (int64, int64) {
		n := int64(len(e.conns))
		return n, n * connBytes
	})
	fp.Add(prefix+".flow_table", func() (int64, int64) {
		m := e.parser.Mem()
		return m.TableEntries, m.TableBytes
	})
	fp.Add(prefix+".parser_flows", func() (int64, int64) {
		m := e.parser.Mem()
		return m.FlowCount, m.FlowBytes
	})
	fp.Add(prefix+".reasm", func() (int64, int64) {
		m := e.parser.Mem()
		return m.FlowCount, m.ReasmBytes
	})
}

// Ping sends an ICMP echo request (diagnostics parity with FtEngine).
func (e *Endpoint) Ping(ip wire.Addr, id, seq uint16, payload []byte) bool {
	mac, req, ok := e.arp.Resolve(ip)
	if !ok {
		if req != nil {
			e.transmit(req)
		}
		return false
	}
	e.transmit(&wire.Packet{
		Kind: wire.KindICMP,
		Eth:  wire.EthHeader{Src: e.Opt.MAC, Dst: mac, Type: wire.EtherTypeIPv4},
		IP:   wire.IPv4Header{Src: e.Opt.IP, Dst: ip, TTL: wire.DefaultTTL, Protocol: wire.ProtoICMP},
		ICMP: wire.ICMPEcho{Type: wire.ICMPEchoRequest, ID: id, Seq: seq},
		PayloadLen: len(payload), Payload: payload,
	})
	return true
}
