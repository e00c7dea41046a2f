package datapath

import (
	"bytes"
	"testing"
	"testing/quick"

	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

func tupleN(i int) wire.FourTuple {
	return wire.FourTuple{
		LocalAddr:  wire.MakeAddr(10, 0, 0, 1),
		RemoteAddr: wire.MakeAddr(10, 0, byte(i>>8), byte(i)),
		LocalPort:  uint16(1000 + i),
		RemotePort: 80,
	}
}

func TestCuckooInsertLookupDelete(t *testing.T) {
	c := NewCuckooTable(4096, 1)
	const n = 3000
	for i := 0; i < n; i++ {
		if !c.Insert(tupleN(i), flow.ID(i)) {
			t.Fatalf("insert %d failed at load %d", i, c.Len())
		}
	}
	if c.Len() != n {
		t.Fatalf("len = %d, want %d", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := c.Lookup(tupleN(i))
		if !ok || v != flow.ID(i) {
			t.Fatalf("lookup %d = %d,%v", i, v, ok)
		}
	}
	// Delete the even half; odd must survive.
	for i := 0; i < n; i += 2 {
		if !c.Delete(tupleN(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := c.Lookup(tupleN(i))
		if (i%2 == 0) == ok {
			t.Fatalf("after delete: lookup %d = %v", i, ok)
		}
	}
}

func TestCuckooUpdateInPlace(t *testing.T) {
	c := NewCuckooTable(64, 2)
	c.Insert(tupleN(1), 10)
	c.Insert(tupleN(1), 20)
	if v, _ := c.Lookup(tupleN(1)); v != 20 {
		t.Fatalf("update = %d, want 20", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len after update = %d", c.Len())
	}
}

func TestCuckooModelEquivalence(t *testing.T) {
	// Against a map oracle under a random op sequence.
	c := NewCuckooTable(512, 3)
	oracle := map[wire.FourTuple]flow.ID{}
	err := quick.Check(func(ops []uint16) bool {
		for _, op := range ops {
			i := int(op % 300)
			k := tupleN(i)
			switch (op >> 9) % 3 {
			case 0:
				if c.Insert(k, flow.ID(i)) {
					oracle[k] = flow.ID(i)
				} else if _, exists := oracle[k]; exists {
					return false // insert of existing key must not fail
				}
			case 1:
				c.Delete(k)
				delete(oracle, k)
			case 2:
				v, ok := c.Lookup(k)
				want, wantOK := oracle[k]
				if ok != wantOK || (ok && v != want) {
					return false
				}
			}
		}
		return len(oracle) == c.Len()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// reassemblyOracle is a byte-level model: a set of received offsets.
type reassemblyOracle struct {
	base     seqnum.Value
	received map[uint32]bool
}

func (o *reassemblyOracle) insert(seq seqnum.Value, n int, wnd uint32) {
	for i := 0; i < n; i++ {
		off := uint32(seq.Add(seqnum.Size(i)).DistanceFrom(o.base))
		cur := o.contig()
		if off >= cur && off < cur+wnd {
			o.received[off] = true
		}
	}
}

func (o *reassemblyOracle) contig() uint32 {
	var n uint32
	for o.received[n] {
		n++
	}
	return n
}

func TestReassemblerMatchesOracle(t *testing.T) {
	err := quick.Check(func(chunks []uint16) bool {
		const base = seqnum.Value(10000)
		const wnd = 512
		r := NewReassembler(base)
		o := &reassemblyOracle{base: base, received: map[uint32]bool{}}
		for _, c := range chunks {
			off := int(c % 600)
			length := int(c>>9)%40 + 1
			seq := base.Add(seqnum.Size(off))
			r.Insert(seq, length, wnd)
			o.insert(seq, length, wnd)
			wantNxt := base.Add(seqnum.Size(o.contig()))
			if r.RcvNxt() != wantNxt {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerFlags(t *testing.T) {
	r := NewReassembler(1000)
	// In-order arrival advances.
	res := r.Insert(1000, 100, 1<<16)
	if !res.Admitted || !res.Advanced || res.OutOfOrder || res.Duplicate || res.NewRcvNxt != 1100 {
		t.Fatalf("in-order: %+v", res)
	}
	// Gap: stored but not advanced, demands a dup-ack.
	res = r.Insert(1300, 100, 1<<16)
	if !res.Admitted || res.Advanced || !res.OutOfOrder {
		t.Fatalf("gapped: %+v", res)
	}
	// Retransmission of old data: duplicate.
	res = r.Insert(1000, 50, 1<<16)
	if !res.Duplicate {
		t.Fatalf("retransmission: %+v", res)
	}
	// Fill the gap: boundary jumps over the parked chunk.
	res = r.Insert(1100, 200, 1<<16)
	if !res.Advanced || res.NewRcvNxt != 1400 || res.OutOfOrder {
		t.Fatalf("gap fill: %+v", res)
	}
	// Out-of-window data is dropped.
	res = r.Insert(1400+100000, 100, 1024)
	if res.Admitted {
		t.Fatalf("out-of-window admitted: %+v", res)
	}
}

func TestRingRoundTrip(t *testing.T) {
	r := NewRing(1 << 12)
	data := []byte("sequence-indexed ring buffer")
	r.WriteAt(100, data)
	if got := r.ReadAt(100, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
	// Wraparound at the ring edge.
	edge := seqnum.Value(1<<12 - 4)
	r.WriteAt(edge, []byte("12345678"))
	if got := r.ReadAt(edge, 8); !bytes.Equal(got, []byte("12345678")) {
		t.Fatalf("wrapped read = %q", got)
	}
	// Nil ring is a no-op (modelled mode).
	var nilRing *Ring
	nilRing.WriteAt(0, data)
	if nilRing.ReadAt(0, 10) != nil {
		t.Fatal("nil ring returned data")
	}
}

func mkParser() *Parser { return NewParser(64, 1<<16, 0, 5) }

func rxPacket(tuple wire.FourTuple, seq seqnum.Value, payload int, flags uint8, ack seqnum.Value, wnd uint16) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindTCP,
		IP:   wire.IPv4Header{Src: tuple.RemoteAddr, Dst: tuple.LocalAddr},
		TCP: wire.TCPHeader{
			SrcPort: tuple.RemotePort, DstPort: tuple.LocalPort,
			Seq: seq, Ack: ack, Flags: flags, Window: wnd,
		},
		PayloadLen: payload,
	}
}

func TestParserDigestsDataStream(t *testing.T) {
	p := mkParser()
	tup := tupleN(0)
	p.Register(tup, 1, nil)

	// SYN anchors reassembly.
	res := p.Parse(rxPacket(tup, 5000, 0, wire.FlagSYN, 0, 100))
	if res.NoFlow || res.Event.RxFlags&flow.RxSYN == 0 || res.Event.SynSeq != 5000 {
		t.Fatalf("SYN parse: %+v", res)
	}
	// In-order data advances the boundary.
	res = p.Parse(rxPacket(tup, 5001, 100, wire.FlagACK, 900, 100))
	if !res.Event.HasData || res.Event.RcvData != 5101 || res.Event.AckNow {
		t.Fatalf("in-order data: %+v", res.Event)
	}
	if !res.Event.HasAck || res.Event.Ack != 900 {
		t.Fatalf("ack digest: %+v", res.Event)
	}
	// Out-of-order data demands an immediate ACK and blocks coalescing.
	res = p.Parse(rxPacket(tup, 5301, 100, wire.FlagACK, 900, 100))
	if res.Event.HasData || !res.Event.AckNow || res.Event.Coalescable {
		t.Fatalf("ooo data: %+v", res.Event)
	}
	// Note: the second identical ACK above was a dup-ack candidate but it
	// carried payload; a pure repeated ACK is flagged IsDupAck.
	res = p.Parse(rxPacket(tup, 5401, 0, wire.FlagACK, 900, 100))
	if !res.Event.IsDupAck {
		t.Fatalf("pure dup ack not detected: %+v", res.Event)
	}
	// Gap fill merges through the parked chunk.
	res = p.Parse(rxPacket(tup, 5101, 200, wire.FlagACK, 900, 100))
	if !res.Event.HasData || res.Event.RcvData != 5401 {
		t.Fatalf("gap fill: %+v", res.Event)
	}
}

func TestParserFIN(t *testing.T) {
	p := mkParser()
	tup := tupleN(1)
	p.Register(tup, 2, nil)
	p.Parse(rxPacket(tup, 100, 0, wire.FlagSYN, 0, 10))
	res := p.Parse(rxPacket(tup, 101, 20, wire.FlagACK|wire.FlagFIN, 55, 10))
	if res.Event.RxFlags&flow.RxFIN == 0 || res.Event.FinSeq != 121 {
		t.Fatalf("FIN digest: %+v", res.Event)
	}
}

func TestParserUnknownFlow(t *testing.T) {
	p := mkParser()
	res := p.Parse(rxPacket(tupleN(9), 1, 10, wire.FlagACK, 0, 10))
	if !res.NoFlow {
		t.Fatal("unknown flow parsed")
	}
}

func TestParserWindowDrop(t *testing.T) {
	p := NewParser(16, 256, 0, 6) // tiny 256 B window
	tup := tupleN(2)
	p.Register(tup, 3, nil)
	p.Parse(rxPacket(tup, 100, 0, wire.FlagSYN, 0, 10))
	res := p.Parse(rxPacket(tup, 101+1000, 100, wire.FlagACK, 0, 10))
	if !res.Dropped || !res.Event.AckNow {
		t.Fatalf("out-of-window not dropped+acked: %+v", res)
	}
}

func TestGeneratorMSSSplit(t *testing.T) {
	g := NewGenerator(1460, 0)
	meta := FlowMeta{Tuple: tupleN(3), LocalMAC: wire.MAC{1}, PeerMAC: wire.MAC{2}}
	var pkts []*wire.Packet
	n := g.Build(tcpproc.SendOp{
		Seq: 1000, Len: 4000, Flags: wire.FlagACK | wire.FlagPSH, Ack: 500, Wnd: 20000,
	}, meta, nil, func(p *wire.Packet) { cp := *p; pkts = append(pkts, &cp) })
	if n != 3 || len(pkts) != 3 {
		t.Fatalf("split into %d packets, want 3", n)
	}
	wantSeqs := []seqnum.Value{1000, 2460, 3920}
	wantLens := []int{1460, 1460, 1080}
	for i, p := range pkts {
		if p.TCP.Seq != wantSeqs[i] || p.PayloadLen != wantLens[i] {
			t.Fatalf("segment %d: seq=%d len=%d", i, p.TCP.Seq, p.PayloadLen)
		}
		if i < 2 && p.TCP.Flags&wire.FlagPSH != 0 {
			t.Fatalf("PSH on non-final segment %d", i)
		}
	}
	if pkts[2].TCP.Flags&wire.FlagPSH == 0 {
		t.Fatal("final segment lost PSH")
	}
}

func TestGeneratorFINOnlyOnLastSegment(t *testing.T) {
	g := NewGenerator(1000, 0)
	meta := FlowMeta{Tuple: tupleN(4)}
	var flagsSeen []uint8
	g.Build(tcpproc.SendOp{Seq: 0, Len: 2500, Flags: wire.FlagACK | wire.FlagFIN},
		meta, nil, func(p *wire.Packet) { flagsSeen = append(flagsSeen, p.TCP.Flags) })
	for i, f := range flagsSeen {
		isLast := i == len(flagsSeen)-1
		if (f&wire.FlagFIN != 0) != isLast {
			t.Fatalf("FIN placement wrong: %v", flagsSeen)
		}
	}
}

func TestGeneratorWindowScaling(t *testing.T) {
	g := NewGenerator(1460, 5)
	meta := FlowMeta{Tuple: tupleN(5)}
	var got uint16
	g.Build(tcpproc.SendOp{Seq: 0, Len: 0, Flags: wire.FlagACK, Wnd: 512 * 1024},
		meta, nil, func(p *wire.Packet) { got = p.TCP.Window })
	if got != 512*1024>>5 {
		t.Fatalf("scaled window = %d", got)
	}
	// Saturation at the 16-bit field.
	g2 := NewGenerator(1460, 0)
	g2.Build(tcpproc.SendOp{Seq: 0, Len: 0, Flags: wire.FlagACK, Wnd: 1 << 20},
		meta, nil, func(p *wire.Packet) { got = p.TCP.Window })
	if got != 0xFFFF {
		t.Fatalf("unscaled saturation = %d", got)
	}
}

func TestGeneratorPayloadFetch(t *testing.T) {
	g := NewGenerator(8, 0)
	ring := NewRing(64)
	ring.WriteAt(0, []byte("0123456789abcdef"))
	meta := FlowMeta{Tuple: tupleN(6)}
	var payloads [][]byte
	g.Build(tcpproc.SendOp{Seq: 0, Len: 16, Flags: wire.FlagACK},
		meta,
		func(s seqnum.Value, buf []byte) { ring.ReadInto(s, buf) },
		func(p *wire.Packet) { payloads = append(payloads, p.Payload) })
	if len(payloads) != 2 || string(payloads[0]) != "01234567" || string(payloads[1]) != "89abcdef" {
		t.Fatalf("fetched payloads: %q", payloads)
	}
}

func TestARPResolveAndReply(t *testing.T) {
	a := NewARP(wire.MakeAddr(10, 0, 0, 1), wire.MAC{1})
	// Unresolved: emits one request, then holds.
	_, req, ok := a.Resolve(wire.MakeAddr(10, 0, 0, 2))
	if ok || req == nil || req.ARP.Op != wire.ARPRequest || req.Eth.Dst != wire.BroadcastMAC {
		t.Fatalf("first resolve: ok=%v req=%+v", ok, req)
	}
	_, req2, _ := a.Resolve(wire.MakeAddr(10, 0, 0, 2))
	if req2 != nil {
		t.Fatal("duplicate ARP request while one is pending")
	}
	// The peer's reply resolves it.
	reply := &wire.Packet{Kind: wire.KindARP, ARP: wire.ARPPacket{
		Op: wire.ARPReply, SenderMAC: wire.MAC{9}, SenderIP: wire.MakeAddr(10, 0, 0, 2),
	}}
	a.Handle(reply)
	mac, _, ok := a.Resolve(wire.MakeAddr(10, 0, 0, 2))
	if !ok || mac != (wire.MAC{9}) {
		t.Fatalf("post-reply resolve: %v %v", mac, ok)
	}
	// We answer requests for our own address.
	ask := &wire.Packet{Kind: wire.KindARP, ARP: wire.ARPPacket{
		Op: wire.ARPRequest, SenderMAC: wire.MAC{7}, SenderIP: wire.MakeAddr(10, 0, 0, 3),
		TargetIP: wire.MakeAddr(10, 0, 0, 1),
	}}
	ans := a.Handle(ask)
	if ans == nil || ans.ARP.Op != wire.ARPReply || ans.Eth.Dst != (wire.MAC{7}) {
		t.Fatalf("ARP reply: %+v", ans)
	}
	// And we learned the asker's mapping opportunistically.
	if mac, _, ok := a.Resolve(wire.MakeAddr(10, 0, 0, 3)); !ok || mac != (wire.MAC{7}) {
		t.Fatal("did not learn from request")
	}
}

func TestICMPEchoReply(t *testing.T) {
	me := wire.MakeAddr(10, 0, 0, 1)
	req := &wire.Packet{
		Kind:       wire.KindICMP,
		Eth:        wire.EthHeader{Src: wire.MAC{5}},
		IP:         wire.IPv4Header{Src: wire.MakeAddr(10, 0, 0, 2), Dst: me},
		ICMP:       wire.ICMPEcho{Type: wire.ICMPEchoRequest, ID: 3, Seq: 4},
		PayloadLen: 8, Payload: []byte("payload!"),
	}
	rep := HandleICMP(req, me, wire.MAC{1})
	if rep == nil || rep.ICMP.Type != wire.ICMPEchoReply || rep.ICMP.ID != 3 || rep.IP.Dst != req.IP.Src {
		t.Fatalf("echo reply: %+v", rep)
	}
	// Not addressed to us: ignored.
	req.IP.Dst = wire.MakeAddr(10, 0, 0, 9)
	if HandleICMP(req, me, wire.MAC{1}) != nil {
		t.Fatal("answered an echo not addressed to us")
	}
}
