package engine_test

import (
	"testing"

	"f4t/internal/engine"
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// When the flow table (or flow-ID space) is exhausted, an open must
// abort cleanly and loudly: an active open completes with a reset, a
// passive SYN draws an immediate RST, and both paths are counted on
// FlowsRejected. Before this was enforced a refused open could leave
// the peer retransmitting its SYN into the void — indistinguishable
// from loss.
func TestEngineRejectsOpensAtMaxFlows(t *testing.T) {
	r := newRig(t, func(c *engine.Config) {
		c.MaxFlows = 2
		c.CarryBytes = false
	})
	r.l2.Listen(80)

	s1 := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	s2 := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return s1.Established() && s2.Established() }, 2_000_000, "two handshakes")

	// Third active open: the client engine's ID space is exhausted, so
	// the host library must see a reset completion, not silence.
	s3 := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return s3.WasReset() }, 1_000_000, "reset completion for rejected open")
	if got := r.e1.FlowsRejected.Total(); got != 1 {
		t.Fatalf("client FlowsRejected = %d, want 1", got)
	}

	// Passive side: a fresh SYN at a full server engine must draw a RST
	// back to the client instead of being silently dropped.
	var rst *wire.Packet
	r.link.BtoA.SetSink(func(p *wire.Packet) {
		if p.Kind == wire.KindTCP && p.TCP.Flags&wire.FlagRST != 0 && p.TCP.DstPort == 7777 {
			rst = p
		}
		r.e1.DeliverPacket(p)
	})
	syn := &wire.Packet{
		Kind: wire.KindTCP,
		Eth:  wire.EthHeader{Src: wire.MAC{2, 0, 0, 0, 0, 9}, Dst: wire.MAC{2, 0, 0, 0, 0, 2}, Type: wire.EtherTypeIPv4},
		IP: wire.IPv4Header{
			Src: wire.MakeAddr(10, 0, 0, 9), Dst: wire.MakeAddr(10, 0, 0, 2),
			TTL: 64, Protocol: wire.ProtoTCP,
		},
		TCP: wire.TCPHeader{SrcPort: 7777, DstPort: 80, Seq: seqnum.Value(1000), Flags: wire.FlagSYN},
	}
	r.e2.DeliverPacket(syn)
	r.run(t, func() bool { return rst != nil }, 1_000_000, "RST for SYN at full table")
	if got := r.e2.FlowsRejected.Total(); got != 1 {
		t.Fatalf("server FlowsRejected = %d, want 1", got)
	}
	if r.e2.FlowCount() != 2 {
		t.Fatalf("server flow count = %d after rejected SYN, want 2", r.e2.FlowCount())
	}
}
