package stack

import (
	"bytes"
	"fmt"
	"testing"

	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// pair is a two-endpoint test harness over a duplex link.
type pair struct {
	k    *sim.Kernel
	link *netsim.Link
	a, b *Endpoint
	ha   *Host // a's one thread, for the tests that act on a's events
}

// dial opens a→b:80 through a's Host, so the connection's notifications
// queue there as events.
func (p *pair) dial() *Conn { return p.ha.Dial(p.b.Opt.IP, 80).(*Conn) }

// onWritable runs fn now and then whenever h reports send-buffer space
// released — every bulk sender below: fill the buffer, refill on
// EvWritable. The poll is an application's: a component of its own,
// ticking after the endpoints, never inside packet processing.
func onWritable(k *sim.Kernel, h *Host, fn func()) {
	k.Register(sim.TickerFunc(func(int64) {
		for _, ev := range h.Poll() {
			if ev.Kind == sock.EvWritable {
				fn()
			}
		}
	}))
	fn()
}

func newPair(t *testing.T, carryBytes bool, alg string) *pair {
	t.Helper()
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 42)
	optA := Options{
		IP: wire.MakeAddr(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Cfg: tcpproc.DefaultConfig(), Alg: alg, CarryBytes: carryBytes, Seed: 1,
	}
	optB := Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: tcpproc.DefaultConfig(), Alg: alg, CarryBytes: carryBytes, Seed: 2,
	}
	a := New(k, optA, link.AtoB.Send)
	b := New(k, optB, link.BtoA.Send)
	link.AtoB.SetSink(func(p *wire.Packet) { b.HandlePacket(p) })
	link.BtoA.SetSink(func(p *wire.Packet) { a.HandlePacket(p) })
	k.Register(a)
	k.Register(b)
	return &pair{k: k, link: link, a: a, b: b, ha: NewHosts(a, 1)[0]}
}

func (p *pair) run(t *testing.T, pred func() bool, budget int64, what string) {
	t.Helper()
	if !p.k.RunUntil(pred, budget) {
		t.Fatalf("timed out waiting for %s after %d cycles", what, budget)
	}
}

func TestHandshake(t *testing.T) {
	p := newPair(t, false, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)

	p.run(t, func() bool { return cli.Established() && srv != nil && srv.Established() }, 100_000, "handshake")
	if got := p.a.Conns(); got != 1 {
		t.Errorf("client conns = %d, want 1", got)
	}
	if got := p.b.Conns(); got != 1 {
		t.Errorf("server conns = %d, want 1", got)
	}
}

func TestHandshakeUsesARP(t *testing.T) {
	p := newPair(t, false, "newreno")
	// No LearnPeer: the client must resolve the server's MAC via ARP.
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 200_000, "handshake via ARP")
}

func TestDataTransferBytes(t *testing.T) {
	p := newPair(t, true, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	msg := []byte("hello, F4T! the quick brown fox jumps over the lazy dog.")
	if n := cli.Send(msg); n != len(msg) {
		t.Fatalf("Send accepted %d, want %d", n, len(msg))
	}
	p.run(t, func() bool { return srv.Available() >= len(msg) }, 200_000, "data delivery")
	got, n := srv.Recv(1024)
	if n != len(msg) || !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %q (%d bytes), want %q", got, n, msg)
	}
}

func TestLargeTransferSplitsAtMSS(t *testing.T) {
	p := newPair(t, true, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	// 100 KB: exceeds one MSS by far and exercises window growth.
	data := make([]byte, 100*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	sent := 0
	onWritable(p.k, p.ha, func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				break
			}
			sent += n
		}
	})
	p.run(t, func() bool { return srv.Available() >= len(data) }, 3_000_000, "bulk delivery")
	got, n := srv.Recv(len(data))
	if n != len(data) {
		t.Fatalf("received %d bytes, want %d", n, len(data))
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	p := newPair(t, true, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	m1 := []byte("ping from client")
	m2 := []byte("pong from server, slightly longer")
	cli.Send(m1)
	srv.Send(m2)
	p.run(t, func() bool { return srv.Available() >= len(m1) && cli.Available() >= len(m2) }, 300_000, "bidirectional delivery")
	g1, _ := srv.Recv(1024)
	g2, _ := cli.Recv(1024)
	if !bytes.Equal(g1, m1) || !bytes.Equal(g2, m2) {
		t.Fatalf("mismatch: %q / %q", g1, g2)
	}
}

func TestGracefulClose(t *testing.T) {
	p := newPair(t, false, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	cli.Close()
	p.run(t, func() bool { return srv.PeerClosed() }, 200_000, "server sees FIN")
	srv.Close()
	p.run(t, func() bool { return srv.Closed() }, 500_000, "server closed")
	// Client lingers in TIME_WAIT, then frees.
	p.run(t, func() bool { return cli.Closed() }, 10_000_000, "client TIME_WAIT expiry")
	if p.a.Conns() != 0 || p.b.Conns() != 0 {
		t.Errorf("conns after close: a=%d b=%d, want 0/0", p.a.Conns(), p.b.Conns())
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(t, false, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	cli.Abort()
	p.run(t, func() bool { return srv.WasReset() }, 200_000, "server sees RST")
	if p.a.Conns() != 0 {
		t.Errorf("client kept state after abort: %d conns", p.a.Conns())
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	p := newPair(t, true, "newreno")
	// Drop one data packet mid-stream: fast retransmit must repair it.
	p.link.AtoB.SetFaults(netsim.Faults{DropOnce: 20})
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	data := make([]byte, 200*1024)
	for i := range data {
		data[i] = byte(i)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(p.k, p.ha, pump)
	p.run(t, func() bool { return srv.Available() >= len(data) }, 20_000_000, "delivery despite loss")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("loss recovery corrupted stream: got %d bytes", n)
	}
	if p.link.AtoB.DroppedPkts != 1 {
		t.Fatalf("expected exactly 1 injected drop, got %d", p.link.AtoB.DroppedPkts)
	}
}

func TestLossyLinkAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"newreno", "cubic", "vegas"} {
		t.Run(alg, func(t *testing.T) {
			p := newPair(t, true, alg)
			p.link.AtoB.SetFaults(netsim.Faults{LossProb: 0.02})
			p.link.BtoA.SetFaults(netsim.Faults{LossProb: 0.02})
			var srv *Conn
			p.b.Listen(80, func(c *Conn) { srv = c })
			cli := p.dial()
			p.run(t, func() bool { return cli.Established() && srv != nil }, 30_000_000, "handshake on lossy link")

			data := make([]byte, 64*1024)
			for i := range data {
				data[i] = byte(i * 7)
			}
			sent := 0
			pump := func() {
				for sent < len(data) {
					n := cli.Send(data[sent:])
					if n == 0 {
						return
					}
					sent += n
				}
			}
			onWritable(p.k, p.ha, pump)
			p.run(t, func() bool { return srv.Available() >= len(data) }, 400_000_000, "delivery on lossy link")
			got, n := srv.Recv(len(data))
			if n != len(data) || !bytes.Equal(got, data) {
				t.Fatalf("%s: lossy transfer corrupted: %d bytes", alg, n)
			}
		})
	}
}

func TestReorderedLink(t *testing.T) {
	p := newPair(t, true, "newreno")
	p.link.AtoB.SetFaults(netsim.Faults{ReorderProb: 0.1, ReorderNS: 5_000})
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	data := make([]byte, 128*1024)
	for i := range data {
		data[i] = byte(i * 13)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(p.k, p.ha, pump)
	p.run(t, func() bool { return srv.Available() >= len(data) }, 100_000_000, "delivery with reordering")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("reordered transfer corrupted: %d bytes", n)
	}
}

func TestDuplicatedPackets(t *testing.T) {
	p := newPair(t, true, "newreno")
	p.link.AtoB.SetFaults(netsim.Faults{DupProb: 0.2})
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	data := make([]byte, 32*1024)
	for i := range data {
		data[i] = byte(i * 3)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(p.k, p.ha, pump)
	p.run(t, func() bool { return srv.Available() >= len(data) }, 50_000_000, "delivery with duplicates")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("duplicated transfer corrupted: %d bytes", n)
	}
}

func TestZeroWindowAndProbe(t *testing.T) {
	p := newPair(t, true, "newreno")
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	// Fill the receiver's 512 KB buffer without consuming.
	total := 700 * 1024
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i * 11)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(p.k, p.ha, pump)

	// The receiver's window must pinch shut near its buffer size.
	p.run(t, func() bool { return srv.Available() >= 500*1024 }, 50_000_000, "buffer fill")
	if w := srv.TCB().AdvertisedWindow(); w > 16*1024 {
		t.Fatalf("advertised window = %d, expected near-zero", w)
	}

	// Now drain; the window update + persist probes must restart the flow.
	received := make([]byte, 0, total)
	for len(received) < total {
		if got, n := srv.Recv(64 * 1024); n > 0 {
			received = append(received, got...)
		} else {
			p.k.Run(50_000)
		}
		pump()
		if p.k.Now() > 3_000_000_000 {
			t.Fatalf("stalled after %d/%d bytes", len(received), total)
		}
	}
	if !bytes.Equal(received, data) {
		t.Fatal("zero-window stream corrupted")
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	p := newPair(t, false, "newreno")
	const n = 200
	var accepted int
	p.b.Listen(80, func(c *Conn) { accepted++ })
	conns := make([]*Conn, n)
	for i := range conns {
		conns[i] = p.a.Dial(p.b.Opt.IP, 80)
	}
	p.run(t, func() bool {
		if accepted < n {
			return false
		}
		for _, c := range conns {
			if !c.Established() {
				return false
			}
		}
		return true
	}, 10_000_000, "200 concurrent handshakes")
}

func TestMaxFlowsRejectsOpens(t *testing.T) {
	// A full endpoint must refuse opens cleanly: Dial returns nil on the
	// initiator, a SYN at a full listener draws a RST (so the client
	// aborts instead of retransmitting), and every refusal is counted.
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 42)
	optA := Options{
		IP: wire.MakeAddr(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Cfg: tcpproc.DefaultConfig(), MaxFlows: 8, Seed: 1,
	}
	optB := Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: tcpproc.DefaultConfig(), MaxFlows: 2, Seed: 2,
	}
	a := New(k, optA, link.AtoB.Send)
	b := New(k, optB, link.BtoA.Send)
	link.AtoB.SetSink(func(p *wire.Packet) { b.HandlePacket(p) })
	link.BtoA.SetSink(func(p *wire.Packet) { a.HandlePacket(p) })
	k.Register(a)
	k.Register(b)

	accepted := 0
	b.Listen(80, func(c *Conn) { accepted++ })
	c1 := a.Dial(optB.IP, 80)
	c2 := a.Dial(optB.IP, 80)
	if !k.RunUntil(func() bool { return c1.Established() && c2.Established() && accepted == 2 }, 1_000_000) {
		t.Fatal("first two handshakes timed out")
	}

	// Server full: the third client SYN must be answered with a RST.
	c3 := a.Dial(optB.IP, 80)
	if c3 == nil {
		t.Fatal("client refused the dial; only the server should be full")
	}
	if !k.RunUntil(func() bool { return c3.WasReset() }, 2_000_000) {
		t.Fatal("rejected open never drew a RST back to the client")
	}
	if b.FlowsRejected == 0 {
		t.Fatalf("server FlowsRejected = %d, want > 0", b.FlowsRejected)
	}
	if b.Conns() != 2 || accepted != 2 {
		t.Fatalf("server conns = %d accepted = %d, want 2/2", b.Conns(), accepted)
	}

	// Client full: Dial refuses locally, counted, no packet sent.
	a.Opt.MaxFlows = 2
	tx := a.TxPkts
	if c := a.Dial(optB.IP, 80); c != nil {
		t.Fatal("Dial succeeded past MaxFlows")
	}
	if a.FlowsRejected != 1 {
		t.Fatalf("client FlowsRejected = %d, want 1", a.FlowsRejected)
	}
	if a.TxPkts != tx {
		t.Fatal("locally-refused Dial still transmitted")
	}

	// The surviving connections are untouched by the rejections.
	if c1.WasReset() || c2.WasReset() || !c1.Established() || !c2.Established() {
		t.Fatal("rejection disturbed established connections")
	}
}

func TestICMPEcho(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.LearnPeer(p.b.Opt.IP, p.b.Opt.MAC)
	var gotReply *wire.Packet
	orig := p.link.BtoA
	orig.SetSink(func(pkt *wire.Packet) {
		if pkt.Kind == wire.KindICMP && pkt.ICMP.Type == wire.ICMPEchoReply {
			gotReply = pkt
		}
		p.a.HandlePacket(pkt)
	})
	if !p.a.Ping(p.b.Opt.IP, 7, 1, []byte("abcd")) {
		t.Fatal("ping not sent despite static ARP")
	}
	p.run(t, func() bool { return gotReply != nil }, 100_000, "ICMP echo reply")
	if gotReply.ICMP.ID != 7 || gotReply.ICMP.Seq != 1 {
		t.Fatalf("echo reply id/seq = %d/%d, want 7/1", gotReply.ICMP.ID, gotReply.ICMP.Seq)
	}
}

func TestRSTToUnknownFlow(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.LearnPeer(p.b.Opt.IP, p.b.Opt.MAC)
	// Craft a data segment for a connection B doesn't know.
	var sawRST bool
	p.link.BtoA.SetSink(func(pkt *wire.Packet) {
		if pkt.Kind == wire.KindTCP && pkt.TCP.Flags&wire.FlagRST != 0 {
			sawRST = true
		}
		p.a.HandlePacket(pkt)
	})
	orphan := &wire.Packet{
		Kind: wire.KindTCP,
		Eth:  wire.EthHeader{Src: p.a.Opt.MAC, Dst: p.b.Opt.MAC, Type: wire.EtherTypeIPv4},
		IP:   wire.IPv4Header{Src: p.a.Opt.IP, Dst: p.b.Opt.IP, TTL: 64, Protocol: wire.ProtoTCP},
		TCP:  wire.TCPHeader{SrcPort: 5555, DstPort: 4444, Seq: 1000, Ack: 2000, Flags: wire.FlagACK},
	}
	p.link.AtoB.Send(orphan)
	p.run(t, func() bool { return sawRST }, 100_000, "RST for orphan segment")
}

func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	p := newPair(t, false, "newreno")
	// Enable aggressive keepalive on the client so the test stays short.
	p.a.Opt.Cfg.KeepaliveIdle = 2_000_000 // 2 ms
	p.a.Opt.Cfg.KeepaliveIvl = 1_000_000
	p.a.Opt.Cfg.KeepaliveCnt = 2
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	// The peer vanishes: every subsequent packet is dropped.
	p.link.AtoB.SetFaults(netsim.Faults{LossProb: 1.0})
	p.link.BtoA.SetFaults(netsim.Faults{LossProb: 1.0})
	p.run(t, func() bool { return cli.Closed() }, 20_000_000, "keepalive reset of dead peer")
	if p.a.Conns() != 0 {
		t.Fatal("client state not freed after keepalive reset")
	}
}

func TestKeepaliveKeepsLiveConnection(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.Opt.Cfg.KeepaliveIdle = 1_000_000
	p.a.Opt.Cfg.KeepaliveIvl = 500_000
	p.a.Opt.Cfg.KeepaliveCnt = 2
	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.a.Dial(p.b.Opt.IP, 80)
	p.run(t, func() bool { return cli.Established() && srv != nil }, 100_000, "handshake")

	// Idle but healthy: many keepalive windows pass, connection survives.
	p.k.Run(3_000_000) // 12 ms ≫ idle+cnt×ivl
	if cli.Closed() || cli.WasReset() || srv.Closed() {
		t.Fatal("healthy idle connection was reset by keepalive")
	}
}

func TestWireCodecCarriesWholeProtocol(t *testing.T) {
	// Re-encode every frame to bytes and decode it again in transit:
	// the byte codecs (checksums included) must carry the complete
	// protocol — handshake, data, FIN — with zero structural loss.
	p := newPair(t, true, "newreno")
	recode := func(next func(*wire.Packet)) func(*wire.Packet) {
		return func(pkt *wire.Packet) {
			b, err := pkt.Marshal()
			if err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
			back, err := wire.Unmarshal(b)
			if err != nil {
				t.Errorf("unmarshal: %v", err)
				return
			}
			next(back)
		}
	}
	p.link.AtoB.SetSink(recode(func(pkt *wire.Packet) { p.b.HandlePacket(pkt) }))
	p.link.BtoA.SetSink(recode(func(pkt *wire.Packet) { p.a.HandlePacket(pkt) }))

	var srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	cli := p.dial()
	p.run(t, func() bool { return cli.Established() && srv != nil }, 300_000, "handshake over byte wire")

	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 17)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(p.k, p.ha, pump)
	p.run(t, func() bool { return srv.Available() >= len(data) }, 5_000_000, "bulk over byte wire")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatal("byte-codec transit corrupted the stream")
	}
	cli.Close()
	p.run(t, func() bool { return srv.PeerClosed() }, 1_000_000, "close over byte wire")
}

func TestDCTCPOverECNMarkingLink(t *testing.T) {
	// The flexibility claim end to end (§4.5 extended): DCTCP running as
	// the congestion-control program over an ECN-marking bottleneck.
	// The switch marks instead of dropping; DCTCP must (a) see marks,
	// (b) keep the queue bounded via proportional decrease, and
	// (c) deliver the stream intact with zero packet loss.
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 77)
	cfg := tcpproc.DefaultConfig()
	cfg.ECN = true
	optsA := Options{
		IP: wire.MakeAddr(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Cfg: cfg, Alg: "dctcp", CarryBytes: true, Seed: 1,
	}
	optsB := Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: cfg, Alg: "dctcp", CarryBytes: true, Seed: 2,
	}
	a := New(k, optsA, link.AtoB.Send)
	b := New(k, optsB, link.BtoA.Send)
	link.AtoB.SetSink(func(p *wire.Packet) { b.HandlePacket(p) })
	link.BtoA.SetSink(func(p *wire.Packet) { a.HandlePacket(p) })
	k.Register(a)
	k.Register(b)
	// DCTCP-style shallow marking threshold (~1.6 us of queue ≈ 20 KB).
	link.AtoB.SetAQM(netsim.ECNThreshold(1600, 0))

	var srv *Conn
	b.Listen(80, func(c *Conn) { srv = c })
	ha := NewHosts(a, 1)[0]
	cli := ha.Dial(optsB.IP, 80).(*Conn)
	if !k.RunUntil(func() bool { return cli.Established() && srv != nil }, 1_000_000) {
		t.Fatal("handshake timed out")
	}

	data := make([]byte, 512*1024)
	for i := range data {
		data[i] = byte(i * 23)
	}
	sent := 0
	pump := func() {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	onWritable(k, ha, pump)
	if !k.RunUntil(func() bool { return srv.Available() >= len(data) }, 100_000_000) {
		t.Fatal("bulk over marking link timed out")
	}
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatal("DCTCP transfer corrupted")
	}
	if link.AtoB.MarkedPkts == 0 {
		t.Fatal("the bottleneck never marked — test exercised nothing")
	}
	if link.AtoB.DroppedPkts != 0 {
		t.Fatalf("packets dropped (%d) despite ECN marking", link.AtoB.DroppedPkts)
	}
	// The sender saw the feedback: alpha must be non-zero.
	if alpha := cli.TCB().CCVars[0]; alpha == 0 {
		t.Fatal("DCTCP alpha never moved — ECE feedback path broken")
	}
}

// TestNodeDemux: one Node serving two addresses behind one sink hands
// each frame — TCP by IP destination, ARP by the address resolved — to
// the endpoint that owns it and counts what nobody owns; a one-endpoint
// Node takes every frame, as it always did.
func TestNodeDemux(t *testing.T) {
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 42)
	mk := func(last byte, tx func(*wire.Packet)) *Endpoint {
		return New(k, Options{
			IP: wire.MakeAddr(10, 0, 0, last), MAC: wire.MAC{2, 0, 0, 0, 0, last},
			Cfg: tcpproc.DefaultConfig(), Seed: uint64(last),
		}, tx)
	}
	x1, x3 := mk(1, link.AtoB.Send), mk(3, link.AtoB.Send)
	y := mk(2, link.BtoA.Send)
	nx, ny := NewNode(x1, x3), NewNode(y)
	link.BtoA.SetSink(nx.DeliverPacket)
	link.AtoB.SetSink(ny.DeliverPacket)
	k.Register(nx)
	k.Register(ny)

	// No static ARP on the dialers: each resolves y first, so the
	// replies exercise the ARP side of the demux too.
	accepted := 0
	y.Listen(80, func(*Conn) { accepted++ })
	c1, c3 := x1.Dial(y.Opt.IP, 80), x3.Dial(y.Opt.IP, 80)
	if !k.RunUntil(func() bool { return c1.Established() && c3.Established() && accepted == 2 }, 1_000_000) {
		t.Fatalf("handshakes through the shared sink timed out (est %v/%v, accepted %d)",
			c1.Established(), c3.Established(), accepted)
	}
	if x1.Conns() != 1 || x3.Conns() != 1 || nx.DemuxDrops != 0 || ny.DemuxDrops != 0 {
		t.Fatalf("conns %d/%d, demux drops %d/%d; want 1/1, 0/0", x1.Conns(), x3.Conns(), nx.DemuxDrops, ny.DemuxDrops)
	}

	// A frame for an address neither node owns: the two-endpoint node
	// counts and drops it, the one-endpoint node passes it to its stack
	// (which answers the orphan with a RST).
	stray := func() *wire.Packet {
		return &wire.Packet{
			Kind: wire.KindTCP,
			Eth:  wire.EthHeader{Type: wire.EtherTypeIPv4},
			IP:   wire.IPv4Header{Src: wire.MakeAddr(10, 0, 0, 8), Dst: wire.MakeAddr(10, 0, 0, 9), TTL: 64, Protocol: wire.ProtoTCP},
			TCP:  wire.TCPHeader{SrcPort: 5555, DstPort: 4444, Seq: 1000, Ack: 2000, Flags: wire.FlagACK},
		}
	}
	rx1, rx3, rxY := x1.RxPkts, x3.RxPkts, y.RxPkts
	nx.DeliverPacket(stray())
	ny.DeliverPacket(stray())
	k.Run(10)
	if nx.DemuxDrops != 1 || x1.RxPkts != rx1 || x3.RxPkts != rx3 {
		t.Fatalf("two-endpoint node: drops=%d rx %d→%d / %d→%d; want 1 drop and no endpoint touched",
			nx.DemuxDrops, rx1, x1.RxPkts, rx3, x3.RxPkts)
	}
	if ny.DemuxDrops != 0 || y.RxPkts != rxY+1 || y.RxNoFlow != 1 {
		t.Fatalf("one-endpoint node: drops=%d rx %d→%d noflow=%d; want the frame handed to its endpoint",
			ny.DemuxDrops, rxY, y.RxPkts, y.RxNoFlow)
	}
}

// TestRecycledIDIgnoresStaleTimers: a flow freed with its retransmission
// entry still queued hands its ID to the next dial, and that entry must
// not reach the new flow. Every segment is lost, three dials at cycle 0
// arm the same deadline (old, bystander, new — in that order), and the
// order of the SYN retransmissions shows whose entries fired: the
// bystander's before the new flow's in every round. An entry of the old
// flow firing for the new one would put the new flow first instead.
func TestRecycledIDIgnoresStaleTimers(t *testing.T) {
	p := newPair(t, false, "newreno")
	p.a.Opt.Cfg.InitialRTO = 100_000 // RTO rounds at 100, 300 and 700 µs
	p.a.LearnPeer(p.b.Opt.IP, p.b.Opt.MAC)
	var retrans []uint16 // source port of every retransmitted SYN, in send order
	p.a.SetTx(func(pkt *wire.Packet) {
		if pkt.TCP.Flags == wire.FlagSYN && p.k.Now() > 0 {
			retrans = append(retrans, pkt.TCP.SrcPort)
		}
	})
	old := p.a.Dial(p.b.Opt.IP, 80)
	by := p.a.Dial(p.b.Opt.IP, 80)
	old.Abort()
	cur := p.a.Dial(p.b.Opt.IP, 80)
	if !old.freed || cur.ID != old.ID {
		t.Fatalf("dial after abort drew ID %d, want the freed %d (freed=%v)", cur.ID, old.ID, old.freed)
	}
	p.k.Run(200_000) // 800 µs

	var want []uint16
	for round := 0; round < 3; round++ {
		want = append(want, by.LocalPort(), cur.LocalPort())
	}
	if fmt.Sprint(retrans) != fmt.Sprint(want) {
		t.Fatalf("SYN retransmissions from ports %v, want %v (bystander %d, recycled-ID flow %d)",
			retrans, want, by.LocalPort(), cur.LocalPort())
	}
}

// TestConnLifecycleAllocs pins a connection end at one allocation: once
// the endpoints are warm (flow tables, parser arena, timer wheel, packet
// pool), dialing, establishing and tearing down a connection — by FIN
// and TIME_WAIT or by RST, alternately — allocates the two Conns, TCB
// inside, and nothing else. It does not hold under -race, whose runtime
// drops sync.Pool entries (the packet pool) at random: skip it by name
// there.
func TestConnLifecycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs warmed endpoints")
	}
	p := newPair(t, false, "newreno")
	p.a.Opt.Cfg.TimeWaitDur = 50_000
	p.b.Opt.Cfg.TimeWaitDur = 50_000
	var cli, srv *Conn
	p.b.Listen(80, func(c *Conn) { srv = c })
	up := func() bool { return cli.Established() && srv != nil && srv.Established() }
	peerClosed := func() bool { return srv.PeerClosed() }
	gone := func() bool { return p.a.Conns() == 0 && p.b.Conns() == 0 }
	n := 0
	lifecycle := func() {
		srv = nil
		cli = p.a.Dial(p.b.Opt.IP, 80)
		if !p.k.RunUntil(up, 100_000) {
			t.Fatal("handshake timed out")
		}
		if n++; n%2 == 0 {
			cli.Abort()
		} else {
			cli.Close()
			if !p.k.RunUntil(peerClosed, 100_000) {
				t.Fatal("FIN never reached the server")
			}
			srv.Close()
		}
		if !p.k.RunUntil(gone, 1_000_000) {
			t.Fatalf("connection state not released: %d/%d conns", p.a.Conns(), p.b.Conns())
		}
	}
	// The timer wheel ratchets its slot arrays up for a few hundred life
	// cycles before every slot it touches has one large enough.
	for i := 0; i < 512; i++ {
		lifecycle()
	}
	avg := testing.AllocsPerRun(64, lifecycle)
	t.Logf("allocations per connection life cycle: %.2f", avg)
	if avg > 2 {
		t.Fatalf("a connection's life cycle allocates %.2f objects, want ≤ 2 (one per end)", avg)
	}
}
