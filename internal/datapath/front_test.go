package datapath

import (
	"testing"

	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

var (
	frontIP  = wire.MakeAddr(10, 0, 0, 1)
	frontMAC = wire.MAC{2, 0, 0, 0, 0, 1}
	peerIP   = wire.MakeAddr(10, 0, 0, 2)
	peerMAC  = wire.MAC{2, 0, 0, 0, 0, 2}
)

const (
	frontListenPort = 80   // the one listening port
	frontFlowPort   = 9000 // local port of the one registered flow
	frontCeiling    = 2    // the registered flow plus one admission
)

// newTestFront returns a front holding one registered flow and one
// listener that admits until frontCeiling flows are live, and the list
// every frame it transmits lands on.
func newTestFront() (*Front, *[]*wire.Packet) {
	sent := new([]*wire.Packet)
	proto := tcpproc.DefaultConfig()
	proto.RcvBuf = 4096
	var f *Front
	f = NewFront(frontIP, frontMAC, proto, 8, true, 1, 2,
		func(p *wire.Packet) { *sent = append(*sent, p) },
		func(pkt *wire.Packet) (listening, opened bool) {
			if listening = pkt.TCP.DstPort == frontListenPort; listening {
				_, _, opened = f.Open(pkt.Tuple(), flow.StateListen, frontCeiling)
			}
			return listening, opened
		})
	f.Open(wire.FourTuple{LocalAddr: frontIP, RemoteAddr: peerIP, LocalPort: frontFlowPort, RemotePort: 40000},
		flow.StateEstablished, frontCeiling)
	return f, sent
}

func tcpTo(dstPort uint16, flags uint8, seq, ack seqnum.Value, payload string) *wire.Packet {
	p := &wire.Packet{
		Kind: wire.KindTCP,
		Eth:  wire.EthHeader{Src: peerMAC, Dst: frontMAC, Type: wire.EtherTypeIPv4},
		IP:   wire.IPv4Header{Src: peerIP, Dst: frontIP, TTL: wire.DefaultTTL, Protocol: wire.ProtoTCP},
		TCP:  wire.TCPHeader{SrcPort: 40000, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: 1000},
	}
	if payload != "" {
		p.Payload, p.PayloadLen = []byte(payload), len(payload)
	}
	return p
}

func arpRequest(target wire.Addr) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindARP,
		Eth:  wire.EthHeader{Src: peerMAC, Dst: wire.BroadcastMAC, Type: wire.EtherTypeARP},
		ARP:  wire.ARPPacket{Op: wire.ARPRequest, SenderMAC: peerMAC, SenderIP: peerIP, TargetIP: target},
	}
}

// FuzzFrontReceive feeds decoded frames to a front with one registered
// flow and one listener, and checks the answers it owns: a non-RST
// segment for no flow draws exactly one RFC 793 §3.4 reset, a reset is
// never answered, an ARP request for our address gets exactly one
// reply, and nothing else is transmitted.
func FuzzFrontReceive(f *testing.F) {
	for _, p := range []*wire.Packet{
		tcpTo(frontListenPort, wire.FlagSYN, 1000, 0, ""),             // admitted
		tcpTo(frontFlowPort, wire.FlagACK|wire.FlagPSH, 1, 1, "data"), // the registered flow
		tcpTo(7, wire.FlagACK, 5, 777, ""),                            // orphan with an ACK
		tcpTo(7, wire.FlagFIN|wire.FlagPSH, 5, 0, "tail"),             // orphan without one
		tcpTo(7, wire.FlagRST|wire.FlagACK, 5, 777, ""),               // a reset for no flow
		arpRequest(frontIP),                                           // for us
		arpRequest(wire.MakeAddr(10, 0, 0, 9)),                        // for someone else
		{Kind: wire.KindICMP, Eth: wire.EthHeader{Src: peerMAC, Dst: frontMAC}, // echo request
			IP:   wire.IPv4Header{Src: peerIP, Dst: frontIP, TTL: wire.DefaultTTL, Protocol: wire.ProtoICMP},
			ICMP: wire.ICMPEcho{Type: wire.ICMPEchoRequest, ID: 7, Seq: 3}},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := wire.Unmarshal(b)
		if err != nil {
			return
		}
		front, sent := newTestFront()
		_, known := front.Lookup(pkt.Tuple())
		_, v := front.Receive(pkt)
		switch pkt.Kind {
		case wire.KindARP:
			if v != Answered {
				t.Fatalf("ARP verdict %d", v)
			}
			if pkt.ARP.Op != wire.ARPRequest || pkt.ARP.TargetIP != frontIP {
				if len(*sent) != 0 {
					t.Fatalf("ARP %+v answered %d times", pkt.ARP, len(*sent))
				}
				return
			}
			if len(*sent) != 1 {
				t.Fatalf("ARP request for us answered %d times", len(*sent))
			}
			r := (*sent)[0]
			if r.Kind != wire.KindARP || r.ARP.Op != wire.ARPReply || r.ARP.SenderIP != frontIP ||
				r.ARP.SenderMAC != frontMAC || r.ARP.TargetIP != pkt.ARP.SenderIP || r.Eth.Dst != pkt.ARP.SenderMAC {
				t.Fatalf("ARP reply %+v to request %+v", r.ARP, pkt.ARP)
			}
		case wire.KindICMP:
			if v != Answered || len(*sent) > 1 {
				t.Fatalf("ICMP verdict %d, %d answers", v, len(*sent))
			}
		case wire.KindTCP:
			rst := pkt.TCP.Flags&wire.FlagRST != 0
			switch {
			case known:
				if v != Matched {
					t.Fatalf("segment for the registered flow: verdict %d", v)
				}
			case v == Admitted:
				if pkt.TCP.DstPort != frontListenPort || pkt.TCP.Flags&(wire.FlagSYN|wire.FlagACK) != wire.FlagSYN {
					t.Fatalf("admitted a non-SYN or a SYN to port %d", pkt.TCP.DstPort)
				}
			case rst:
			default:
				if len(*sent) != 1 {
					t.Fatalf("segment for no flow (verdict %d) answered %d times", v, len(*sent))
				}
				checkReset(t, pkt, (*sent)[0])
				return
			}
			if len(*sent) != 0 {
				t.Fatalf("verdict %d (rst %v) transmitted %d frames", v, rst, len(*sent))
			}
		}
	})
}

// checkReset requires r to be the RFC 793 §3.4 reset answering orphan:
// with an ACK, the reset takes its sequence number from the ACK field;
// without, it sits at zero and acknowledges everything orphan occupied.
func checkReset(t *testing.T, orphan, r *wire.Packet) {
	t.Helper()
	wantSeq, wantAck, wantFlags := orphan.TCP.Ack, seqnum.Value(0), uint8(wire.FlagRST)
	if orphan.TCP.Flags&wire.FlagACK == 0 {
		n := seqnum.Size(orphan.PayloadLen)
		if orphan.TCP.Flags&wire.FlagSYN != 0 {
			n++
		}
		if orphan.TCP.Flags&wire.FlagFIN != 0 {
			n++
		}
		wantSeq, wantAck, wantFlags = 0, orphan.TCP.Seq.Add(n), wire.FlagRST|wire.FlagACK
	}
	if r.Kind != wire.KindTCP || r.TCP.Seq != wantSeq || r.TCP.Ack != wantAck || r.TCP.Flags != wantFlags {
		t.Fatalf("reset seq/ack/flags %d/%d/%#x, want %d/%d/%#x", r.TCP.Seq, r.TCP.Ack, r.TCP.Flags, wantSeq, wantAck, wantFlags)
	}
	if r.TCP.SrcPort != orphan.TCP.DstPort || r.TCP.DstPort != orphan.TCP.SrcPort ||
		r.IP.Src != frontIP || r.IP.Dst != orphan.IP.Src || r.Eth.Dst != orphan.Eth.Src {
		t.Fatalf("reset addressed %+v/%+v, answering %+v/%+v", r.IP, r.TCP, orphan.IP, orphan.TCP)
	}
}

// A SYN to a full listener is refused with a reset and opens nothing;
// an unresolved next hop parks a SYN behind one ARP request, and the
// reply releases it addressed to the resolved MAC.
func TestFrontRefusesAndParks(t *testing.T) {
	f, sent := newTestFront()
	if _, v := f.Receive(tcpTo(frontListenPort, wire.FlagSYN, 1000, 0, "")); v != Admitted || f.Live() != 2 {
		t.Fatalf("first SYN: verdict %d, %d live", v, f.Live())
	}
	syn := tcpTo(frontListenPort, wire.FlagSYN, 2000, 0, "")
	syn.TCP.SrcPort = 40001
	if _, v := f.Receive(syn); v != Answered || f.Live() != 2 || len(*sent) != 1 {
		t.Fatalf("SYN at the ceiling: verdict %d, %d live, %d sent", v, f.Live(), len(*sent))
	}
	checkReset(t, syn, (*sent)[0])

	*sent = nil
	far := wire.MakeAddr(10, 0, 0, 7)
	tcb, tx, ok := f.Open(wire.FourTuple{LocalAddr: frontIP, RemoteAddr: far, LocalPort: 1, RemotePort: 2}, flow.StateClosed, 3)
	if !ok {
		t.Fatal("open under a raised ceiling refused")
	}
	emitted := 0
	f.Emit(&tcpproc.SendOp{Seq: tcb.ISS, Flags: wire.FlagSYN}, tcb.Tuple, tx, func(*wire.Packet) { emitted++ })
	if emitted != 0 || len(*sent) != 1 || (*sent)[0].Kind != wire.KindARP {
		t.Fatalf("unresolved SYN: %d emitted, sent %d frames", emitted, len(*sent))
	}
	farMAC := wire.MAC{2, 0, 0, 0, 0, 7}
	reply := &wire.Packet{Kind: wire.KindARP, ARP: wire.ARPPacket{Op: wire.ARPReply, SenderIP: far, SenderMAC: farMAC, TargetIP: frontIP}}
	if _, v := f.Receive(reply); v != Answered || len(*sent) != 2 {
		t.Fatalf("ARP reply: verdict %d, sent %d frames", v, len(*sent))
	}
	if p := (*sent)[1]; p.Kind != wire.KindTCP || p.TCP.Flags != wire.FlagSYN || p.Eth.Dst != farMAC {
		t.Fatalf("released %+v to %v", p.TCP, p.Eth.Dst)
	}
}
