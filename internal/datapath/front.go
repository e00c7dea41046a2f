package datapath

import (
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// Front is the network front end both TCP substrates share — FtEngine's
// data path (§4.1.2) and the software stack's. It owns the flow-ID
// allocator, the RX parser, the packet generator, the ARP cache with the
// packets parked on it, and the ISS draw; it decides how a received frame
// is classified, how a flow is admitted and freed, and what happens to a
// segment whose next hop is unresolved. A substrate keeps its flow
// objects and its counters: the front reports outcomes and calls back
// through transmit (every frame it originates) and admit (a SYN that
// matched no flow).
type Front struct {
	ip       wire.Addr
	mac      wire.MAC
	ringSize int // per-flow data ring bytes; 0 = modelled only, no rings

	parser *Parser
	gen    *Generator
	arp    *ARP
	ids    flow.IDs // live IDs are exactly the parser's registered flows
	iss    *sim.Rand
	parked map[wire.Addr][]*wire.Packet // built packets awaiting ARP resolution, per next hop

	transmit func(*wire.Packet)
	admit    func(*wire.Packet) (listening, opened bool)
}

// NewFront builds the front end of one substrate at ip/mac, for up to
// maxFlows flows shaped by proto; carry allocates per-flow data rings,
// and the seeds feed the flow table's hashes and the ISS draw. transmit
// sends every frame the front originates. admit is asked about a SYN
// that matched no flow: it reports whether the port listens and, if so,
// whether it opened a flow for the SYN through Open.
func NewFront(ip wire.Addr, mac wire.MAC, proto tcpproc.Config, maxFlows int, carry bool,
	parserSeed, issSeed uint64, transmit func(*wire.Packet), admit func(*wire.Packet) (listening, opened bool)) *Front {
	f := &Front{
		ip:       ip,
		mac:      mac,
		parser:   NewParser(maxFlows, proto.RcvBuf, proto.WndScale, parserSeed),
		gen:      NewGenerator(proto.MSS, proto.WndScale),
		arp:      NewARP(ip, mac),
		iss:      sim.NewRand(issSeed),
		parked:   make(map[wire.Addr][]*wire.Packet),
		transmit: transmit,
		admit:    admit,
	}
	if proto.ECN {
		f.gen.EnableECN()
	}
	if carry {
		f.ringSize = 1
		for f.ringSize < int(proto.RcvBuf)*2 {
			f.ringSize <<= 1
		}
	}
	return f
}

// Open admits a flow for tuple in state. While fewer than ceiling flows
// are live it draws an ID and then an ISS, allocates the rings and
// registers the flow with the parser, and returns the flow's control
// block seeded from the ISS and its send ring (nil in modelled mode; the
// parser keeps the receive ring). It reports !ok when the ceiling is
// reached or the flow table refuses the tuple (the drawn ID goes back);
// the substrate counts refusals. ceiling is read per call, so a
// substrate may lower it at run time.
func (f *Front) Open(tuple wire.FourTuple, state flow.State, ceiling int) (tcb flow.TCB, tx *Ring, ok bool) {
	if f.ids.Live() >= ceiling {
		return tcb, nil, false
	}
	id, _ := f.ids.Alloc(ceiling) // cannot fail: fewer than ceiling drawn IDs are live
	iss := seqnum.Value(f.iss.Uint32())
	var rx *Ring
	if f.ringSize > 0 {
		rx, tx = NewRing(f.ringSize), NewRing(f.ringSize)
	}
	if !f.parser.Register(tuple, id, rx) {
		f.ids.Free(id)
		return tcb, nil, false
	}
	tcb = flow.TCB{
		FlowID: id,
		Tuple:  tuple,
		State:  state,
		ISS:    iss,
		SndUna: iss, SndNxt: iss, Req: iss,
		RcvBuf:      f.parser.rcvBuf,
		AckedToHost: iss.Add(1),
	}
	return tcb, tx, true
}

// Free releases a flow Open admitted: the parser forgets it and its ID
// is reused first.
func (f *Front) Free(tuple wire.FourTuple, id flow.ID) {
	f.parser.Deregister(tuple, id)
	f.ids.Free(id)
}

// Live is the number of flows admitted and not yet freed.
func (f *Front) Live() int { return f.ids.Live() }

// Lookup returns the flow registered for tuple.
func (f *Front) Lookup(t wire.FourTuple) (flow.ID, bool) { return f.parser.Lookup(t) }

// Ring returns a flow's receive ring (nil in modelled mode).
func (f *Front) Ring(id flow.ID) *Ring { return f.parser.Ring(id) }

// TableStats exposes the flow table's occupancy and displacement counters.
func (f *Front) TableStats() CuckooStats { return f.parser.TableStats() }

// Learn installs a static ARP mapping.
func (f *Front) Learn(ip wire.Addr, mac wire.MAC) { f.arp.Learn(ip, mac) }

// Verdict is how Receive classified a frame.
type Verdict uint8

const (
	Answered Verdict = iota // ARP, ICMP or a refused SYN: answered in place, no event
	Orphan                  // TCP for no flow that opened none: reset unless a reset, no event
	Admitted                // a SYN to a listener opened a flow: the result is its first event
	Matched                 // a segment for a registered flow: its event and drop accounting
)

// Receive classifies one received frame and does what the front owns of
// it: ARP requests for our address and ICMP echo requests are answered,
// an ARP frame releases the packets parked on its sender, a SYN to a
// listener is admitted through admit, and a segment for no flow draws an
// RFC 793 §3.4 reset. The frame stays the caller's.
func (f *Front) Receive(pkt *wire.Packet) (ParseResult, Verdict) {
	switch pkt.Kind {
	case wire.KindARP:
		if reply := f.arp.Handle(pkt); reply != nil {
			f.transmit(reply)
		}
		f.release(pkt.ARP.SenderIP, pkt.ARP.SenderMAC)
		return ParseResult{}, Answered
	case wire.KindICMP:
		if reply := HandleICMP(pkt, f.ip, f.mac); reply != nil {
			f.transmit(reply)
		}
		return ParseResult{}, Answered
	}
	res := f.parser.Parse(pkt)
	if !res.NoFlow {
		return res, Matched
	}
	if pkt.TCP.Flags&(wire.FlagSYN|wire.FlagACK) == wire.FlagSYN {
		if listening, opened := f.admit(pkt); opened {
			f.arp.Learn(pkt.IP.Src, pkt.Eth.Src)
			if res = f.parser.Parse(pkt); res.NoFlow {
				return res, Answered
			}
			return res, Admitted
		} else if listening {
			// No room: refuse the open loudly. The reset tells the client
			// at once instead of letting its SYN retransmit into the
			// void, which at scale looks exactly like loss.
			f.reset(pkt)
			return res, Answered
		}
	}
	// A non-RST segment to a non-existent connection draws a reset, so
	// peers holding stale state tear down promptly instead of
	// retransmitting until their RTO chain exhausts.
	f.reset(pkt)
	return res, Orphan
}

func (f *Front) reset(pkt *wire.Packet) {
	if rst := OrphanRST(pkt, f.ip, f.mac); rst != nil {
		f.transmit(rst)
	}
}

// Emit expands one send operation into packets for the flow on tuple
// (§4.1.2 TX data path), reading payload from the flow's TX ring (nil:
// modelled only), and hands them to emit addressed to the peer's MAC.
// An unresolved next hop parks the built packets and then transmits the
// ARP request; the reply addresses them and releases them in order
// through transmit. Only a payload-free SYN can be parked: the
// handshake resolves the peer before any data flows.
func (f *Front) Emit(op *tcpproc.SendOp, tuple wire.FourTuple, payload *Ring, emit func(*wire.Packet)) {
	var fetch PayloadFetch
	if payload != nil {
		fetch = payload.ReadInto
	}
	hop := tuple.RemoteAddr
	mac, req, ok := f.arp.Resolve(hop)
	meta := FlowMeta{Tuple: tuple, LocalMAC: f.mac, PeerMAC: mac}
	if !ok {
		f.gen.Build(*op, meta, fetch, func(p *wire.Packet) { f.parked[hop] = append(f.parked[hop], p) })
		if req != nil {
			f.transmit(req)
		}
		return
	}
	f.gen.Build(*op, meta, fetch, emit)
}

// release transmits, in order, the packets parked for ip, now at mac.
func (f *Front) release(ip wire.Addr, mac wire.MAC) {
	pkts := f.parked[ip]
	if len(pkts) == 0 {
		return
	}
	delete(f.parked, ip)
	for _, p := range pkts {
		p.Eth.Dst = mac
		f.transmit(p)
	}
}

// Ping sends an ICMP echo request, or the ARP request that must resolve
// ip first (then it reports false).
func (f *Front) Ping(ip wire.Addr, id, seq uint16, payload []byte) bool {
	mac, req, ok := f.arp.Resolve(ip)
	if !ok {
		if req != nil {
			f.transmit(req)
		}
		return false
	}
	f.transmit(&wire.Packet{
		Kind:       wire.KindICMP,
		Eth:        wire.EthHeader{Src: f.mac, Dst: mac, Type: wire.EtherTypeIPv4},
		IP:         wire.IPv4Header{Src: f.ip, Dst: ip, TTL: wire.DefaultTTL, Protocol: wire.ProtoICMP},
		ICMP:       wire.ICMPEcho{Type: wire.ICMPEchoRequest, ID: id, Seq: seq},
		PayloadLen: len(payload), Payload: payload,
	})
	return true
}

// InstrumentMem registers the parser's per-flow memory probes on a
// footprint accountant: the flow table, the parser-flow arena (embedded
// reassemblers included) and out-of-order reassembly buffers. Probes are
// evaluated only at snapshot time.
func (f *Front) InstrumentMem(fp *telemetry.Footprint, prefix string) {
	fp.Add(prefix+".flow_table", func() (int64, int64) {
		m := f.parser.Mem()
		return m.TableEntries, m.TableBytes
	})
	fp.Add(prefix+".parser_flows", func() (int64, int64) {
		m := f.parser.Mem()
		return m.FlowCount, m.FlowBytes
	})
	fp.Add(prefix+".reasm", func() (int64, int64) {
		m := f.parser.Mem()
		return m.FlowCount, m.ReasmBytes
	})
}
