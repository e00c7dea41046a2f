package wire

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary frames to Unmarshal: it must never
// panic, and a frame it accepts must re-marshal and decode back to the
// same packet. Marshal recomputes the lengths and checksums and writes a
// zero TTL as DefaultTTL; every other decoded field must survive.
func FuzzUnmarshal(f *testing.F) {
	tcp := &Packet{
		Kind: KindTCP,
		Eth:  EthHeader{Src: MAC{1}, Dst: MAC{2}},
		IP:   IPv4Header{Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2), ECN: 2},
		TCP:  TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 12345, Ack: 999, Flags: FlagACK | FlagPSH, Window: 500},
	}
	tcp.Payload = []byte("hello, wire format")
	tcp.PayloadLen = len(tcp.Payload)
	arp := &Packet{Kind: KindARP, Eth: EthHeader{Dst: BroadcastMAC}, ARP: ARPPacket{Op: 1, SenderIP: MakeAddr(10, 0, 0, 1), TargetIP: MakeAddr(10, 0, 0, 2)}}
	icmp := &Packet{Kind: KindICMP, IP: IPv4Header{Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)}, ICMP: ICMPEcho{Type: 8, ID: 7, Seq: 3}}
	for _, p := range []*Packet{tcp, arp, icmp} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("decoded %+v does not re-marshal: %v", p, err)
		}
		q, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled frame does not decode: %v", err)
		}
		want := *p
		want.IP.TotalLen, want.IP.Checksum, want.TCP.Checksum = q.IP.TotalLen, q.IP.Checksum, q.TCP.Checksum
		if want.Kind != KindARP && want.IP.TTL == 0 {
			want.IP.TTL = DefaultTTL
		}
		if !reflect.DeepEqual(&want, q) {
			t.Fatalf("round trip changed the packet:\n%+v\nbecame\n%+v", &want, q)
		}
	})
}
