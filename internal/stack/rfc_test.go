// Regression tests for the RFC-conformance fixes: RST sequence
// validation (RFC 793 §3.4 / RFC 5961), the SYN-SENT unacceptable-ACK
// reset (RFC 793 p.66), and ephemeral-port allocation.
package stack

import (
	"testing"

	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// craftRST builds a reset aimed at conn c's local endpoint, claiming to
// come from its peer, with the given sequence number.
func craftRST(c *Conn, srcMAC, dstMAC wire.MAC, seq seqnum.Size) *wire.Packet {
	tp := c.TCB.Tuple
	return &wire.Packet{
		Kind: wire.KindTCP,
		Eth:  wire.EthHeader{Src: srcMAC, Dst: dstMAC, Type: wire.EtherTypeIPv4},
		IP: wire.IPv4Header{
			Src: tp.RemoteAddr, Dst: tp.LocalAddr,
			TTL: 64, Protocol: wire.ProtoTCP,
		},
		TCP: wire.TCPHeader{
			SrcPort: tp.RemotePort, DstPort: tp.LocalPort,
			Seq: c.TCB.RcvNxt.Add(seq), Flags: wire.FlagRST,
		},
	}
}

// A blind/stale RST whose sequence number lies far outside the receive
// window must not tear down an established connection; the transfer must
// continue and the drop must be counted.
func TestStaleRSTDoesNotKillConnection(t *testing.T) {
	p := newPair(t, true, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	// Segment from a previous incarnation: 1 GiB away from RcvNxt.
	p.a.HandlePacket(craftRST(cli, p.b.Opt.MAC, p.a.Opt.MAC, 1<<30))
	if cli.WasReset() || cli.Closed() {
		t.Fatal("out-of-window RST reset the connection")
	}
	if p.a.RxOowRsts != 1 {
		t.Fatalf("RxOowRsts = %d, want 1", p.a.RxOowRsts)
	}

	// The connection still works.
	msg := []byte("still alive after the stale reset")
	cli.Send(msg)
	p.run(t, func() bool { return srv.Available() >= len(msg) }, 300_000, "post-RST delivery")

	// An in-window RST, by contrast, still does its job.
	p.a.HandlePacket(craftRST(cli, p.b.Opt.MAC, p.a.Opt.MAC, 0))
	if !cli.WasReset() {
		t.Fatal("legitimate in-window RST was ignored")
	}
}

// Dialing a port nobody listens on must fail fast: the peer answers the
// orphan SYN with <SEQ=0><ACK=ISS+1><CTL=RST,ACK>, which the dialer in
// SYN-SENT validates against its SND.NXT and honors — long before the
// first retransmission timeout would fire.
func TestDialRefusedPortResetsPromptly(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.LearnPeer(p.b.Opt.IP, p.b.Opt.MAC)
	cli := p.a.Dial(p.b.Opt.IP, 81) // nothing listens on 81
	// InitialRTO is 10 ms = 2.5 M cycles; refusal must land in a couple
	// of RTTs (~600 ns propagation each way).
	p.run(t, func() bool { return cli.WasReset() }, 10_000, "connection refused")
	if p.a.Conns() != 0 {
		t.Fatalf("refused dial left %d conns", p.a.Conns())
	}
}

// Ephemeral allocation must wrap back to the ephemeral base, never
// through the well-known ports, and must skip tuples that are in use.
func TestEphemeralPortWrapAndCollision(t *testing.T) {
	p := newPair(t, false, "newreno")
	remote := p.b.Opt.IP

	c1 := p.a.Dial(remote, 80)
	if c1 == nil || c1.TCB.Tuple.LocalPort != 32769 {
		t.Fatalf("first dial port = %d, want 32769", c1.TCB.Tuple.LocalPort)
	}

	// Force the counter to the top of the range: the next allocations
	// must take 65535, then wrap to the base, never into ports < 32768.
	p.a.nextPort = 65534
	c2 := p.a.Dial(remote, 80)
	c3 := p.a.Dial(remote, 80)
	if c2.TCB.Tuple.LocalPort != 65535 {
		t.Fatalf("pre-wrap port = %d, want 65535", c2.TCB.Tuple.LocalPort)
	}
	if got := c3.TCB.Tuple.LocalPort; got < ephemeralBase {
		t.Fatalf("allocation wrapped into reserved ports: %d", got)
	}

	// Rewind the counter onto a live connection's port: Dial must skip
	// the occupied tuple instead of colliding.
	p.a.nextPort = c1.TCB.Tuple.LocalPort - 1
	c4 := p.a.Dial(remote, 80)
	if c4.TCB.Tuple.LocalPort == c1.TCB.Tuple.LocalPort {
		t.Fatal("Dial reused a port with a live connection on the same tuple")
	}

	// A different remote port is a different tuple space: no conflict,
	// the same local port is fair game.
	p.a.nextPort = c1.TCB.Tuple.LocalPort - 1
	c5 := p.a.Dial(remote, 443)
	if c5 == nil || c5.TCB.Tuple.LocalPort != c1.TCB.Tuple.LocalPort {
		t.Fatalf("distinct remote port needlessly avoided local port %d", c1.TCB.Tuple.LocalPort)
	}
}

// Churn through far more dials than the 32768-port ephemeral range: the
// counter wraps multiple times and every allocation must still succeed
// (old connections are aborted, so their tuples free up).
func TestDialChurnWrapsPortSpace(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.LearnPeer(p.b.Opt.IP, p.b.Opt.MAC)
	const churn = 70_000
	for i := 0; i < churn; i++ {
		c := p.a.Dial(p.b.Opt.IP, 80)
		if c == nil {
			t.Fatalf("dial %d returned nil with only one live conn", i)
		}
		if c.TCB.Tuple.LocalPort < ephemeralBase {
			t.Fatalf("dial %d allocated reserved port %d", i, c.TCB.Tuple.LocalPort)
		}
		c.Abort()
	}
	if p.a.Conns() != 0 {
		t.Fatalf("%d conns leaked by churn", p.a.Conns())
	}
}
