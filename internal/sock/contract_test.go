package sock_test

import (
	"bytes"
	"testing"

	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/softstack"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// Both substrates implement the seam directly, with no wrapper type.
var (
	_ sock.Conn = (*softstack.Socket)(nil)
	_ sock.Host = (*softstack.Lib)(nil)
	_ sock.Conn = (*stack.Conn)(nil)
	_ sock.Host = (*stack.Host)(nil)
)

var (
	addrA, addrB = wire.MakeAddr(10, 7, 0, 1), wire.MakeAddr(10, 7, 0, 2)
	macA, macB   = wire.MAC{2, 7, 0, 0, 0, 1}, wire.MAC{2, 7, 0, 0, 0, 2}
)

// substrate builds a two-host rig (A at addrA, B at addrB) on the link
// and returns each host's socket surface, plus B's count of flows it
// still holds state for.
type substrate struct {
	name string
	mk   func(k *sim.Kernel, link *netsim.Link) (a, b sock.Host, flowsB func() int)
}

var substrates = []substrate{
	{"softstack", func(k *sim.Kernel, link *netsim.Link) (sock.Host, sock.Host, func() int) {
		cfgA := engine.DefaultConfig()
		cfgA.IP, cfgA.MAC, cfgA.Seed, cfgA.Channels, cfgA.CarryBytes = addrA, macA, 1, 1, true
		cfgB := cfgA
		cfgB.IP, cfgB.MAC, cfgB.Seed = addrB, macB, 2
		ea, eb := engine.New(k, cfgA, link.AtoB.Send), engine.New(k, cfgB, link.BtoA.Send)
		link.AtoB.SetSink(eb.DeliverPacket)
		link.BtoA.SetSink(ea.DeliverPacket)
		ea.LearnPeer(addrB, macB)
		eb.LearnPeer(addrA, macA)
		k.Register(ea)
		k.Register(eb)
		return softstack.NewLib(k, ea, 0), softstack.NewLib(k, eb, 0), eb.FlowCount
	}},
	{"stack", func(k *sim.Kernel, link *netsim.Link) (sock.Host, sock.Host, func() int) {
		mk := func(ip wire.Addr, mac wire.MAC, seed uint64, pipe *netsim.Pipe) *stack.Node {
			ep := stack.New(k, stack.Options{
				IP: ip, MAC: mac, Cfg: tcpproc.DefaultConfig(), CarryBytes: true, MaxFlows: 4, Seed: seed,
			}, pipe.Send)
			n := stack.NewNode(ep)
			k.Register(n)
			return n
		}
		na, nb := mk(addrA, macA, 1, link.AtoB), mk(addrB, macB, 2, link.BtoA)
		link.AtoB.SetSink(nb.DeliverPacket)
		link.BtoA.SetSink(na.DeliverPacket)
		na.Endpoint().LearnPeer(addrB, macB)
		nb.Endpoint().LearnPeer(addrA, macA)
		return stack.NewHosts(na.Endpoint(), 1)[0], stack.NewHosts(nb.Endpoint(), 1)[0], nb.Endpoint().Conns
	}},
}

// rig polls both hosts as the clock advances, logging each connection's
// event kinds in arrival order.
type rig struct {
	t    *testing.T
	k    *sim.Kernel
	a, b sock.Host
	log  map[sock.Conn][]sock.EventKind
	acc  []sock.Conn // accepted connections, in order

	onHangup func(sock.Conn) // the app's reaction, run as it handles the event
}

func (r *rig) poll() {
	for _, h := range []sock.Host{r.a, r.b} {
		for _, ev := range h.Poll() {
			r.log[ev.Conn] = append(r.log[ev.Conn], ev.Kind)
			switch {
			case ev.Kind == sock.EvAccepted:
				r.acc = append(r.acc, ev.Conn)
			case ev.Kind == sock.EvHangup && r.onHangup != nil:
				r.onHangup(ev.Conn)
			}
		}
	}
}

func (r *rig) until(what string, pred func() bool) {
	r.t.Helper()
	for i := 0; i < 40_000_000; i += 50 {
		r.poll()
		if pred() {
			return
		}
		r.k.Run(50)
	}
	r.t.Fatalf("timed out waiting for %s", what)
}

// connect dials A→B and returns both ends once established.
func (r *rig) connect() (cli, srv sock.Conn) {
	r.t.Helper()
	cli = r.a.Dial(addrB, 80)
	if cli == nil {
		r.t.Fatal("dial refused on an idle host")
	}
	want := len(r.acc) + 1
	r.until("handshake", func() bool { return cli.Established() && len(r.acc) == want })
	return cli, r.acc[want-1]
}

// checkOrder holds one connection's event log to the seam's order: one
// Connected|Accepted first, a Hangup last, and nothing Readable once a
// Hangup has been seen (Writable may still follow the peer-FIN Hangup:
// the half-closed side keeps sending).
func (r *rig) checkOrder(who string, c sock.Conn, first sock.EventKind) {
	r.t.Helper()
	evs := r.log[c]
	if len(evs) < 2 || evs[0] != first || evs[len(evs)-1] != sock.EvHangup {
		r.t.Fatalf("%s: first event %v, last %v of %d; want %d … Hangup", who, evs[:1], evs[len(evs)-1:], len(evs), first)
	}
	hung := false
	for i, k := range evs[1:] {
		switch {
		case k == sock.EvConnected || k == sock.EvAccepted:
			r.t.Fatalf("%s: second open event at %d", who, i+1)
		case k == sock.EvHangup:
			hung = true
		case hung && k == sock.EvReadable:
			r.t.Fatalf("%s: Readable at %d, after a Hangup", who, i+1)
		}
	}
}

// TestContract runs one script through the interface on both
// substrates: the parity every decorator above the seam relies on.
func TestContract(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			k := sim.New()
			a, b, flowsB := sub.mk(k, netsim.NewLink(k, 100, 600, 7))
			r := &rig{t: t, k: k, a: a, b: b, log: make(map[sock.Conn][]sock.EventKind)}
			if !b.Listen(80) {
				t.Fatal("listen refused")
			}
			k.Run(3_000)
			cli, srv := r.connect()

			// Addressing, including the passive side's view.
			if ip, port := cli.Remote(); ip != addrB || port != 80 {
				t.Fatalf("dialer Remote = %v:%d", ip, port)
			}
			if ip, port := srv.Remote(); ip != addrA || port != cli.LocalPort() {
				t.Fatalf("acceptor Remote = %v:%d, want %v:%d", ip, port, addrA, cli.LocalPort())
			}
			if srv.LocalPort() != 80 {
				t.Fatalf("acceptor LocalPort = %d", srv.LocalPort())
			}

			// Send past SendSpace: a short write of exactly the free
			// space, then nothing until the peer's ACKs release some.
			space := cli.SendSpace()
			if space <= 0 || space != cli.SendCap() {
				t.Fatalf("fresh SendSpace = %d, SendCap = %d", space, cli.SendCap())
			}
			data := make([]byte, space+4096)
			for i := range data {
				data[i] = byte(i*7 + i>>8)
			}
			if n := cli.Send(data); n != space {
				t.Fatalf("oversized Send accepted %d, want the %d free", n, space)
			}
			if cli.SendSpace() != 0 || cli.Send(data[space:]) != 0 {
				t.Fatal("full send buffer still accepts bytes")
			}
			if got := int(cli.WritePtr().DistanceFrom(cli.AckedTo())); got != space {
				t.Fatalf("WritePtr-AckedTo = %d, want %d", got, space)
			}

			// Recv drains the stream in order; the window reopens as it goes.
			var got []byte
			r.until("delivery", func() bool {
				for srv.Available() > 0 {
					if int(srv.DeliveredTo().DistanceFrom(srv.ReadPtr())) != srv.Available() {
						t.Fatal("Available disagrees with DeliveredTo-ReadPtr")
					}
					buf, n := srv.Recv(8192)
					got = append(got, buf[:n]...)
				}
				return len(got) == space
			})
			if !bytes.Equal(got, data[:space]) {
				t.Fatal("byte stream corrupted")
			}
			r.until("send buffer release", func() bool { return cli.SendSpace() == space })

			// Half-close: Close is idempotent and Send returns 0 after it,
			// while the other direction keeps working.
			if !cli.Close() || !cli.Close() {
				t.Fatal("Close not in flight on an idle queue")
			}
			if cli.Send([]byte("x")) != 0 || cli.SendModelled(1) != 0 {
				t.Fatal("Send accepted bytes after Close")
			}
			r.until("FIN delivery", srv.PeerClosed)
			reply := []byte("still open this way")
			if srv.Send(reply) != len(reply) {
				t.Fatal("acceptor cannot send after the peer's FIN")
			}
			r.until("reply delivery", func() bool { return cli.Available() == len(reply) })
			if buf, n := cli.Recv(64); n != len(reply) || !bytes.Equal(buf, reply) {
				t.Fatalf("reply = %q", buf[:n])
			}
			if !srv.Close() {
				t.Fatal("acceptor Close refused")
			}
			r.until("teardown", func() bool { return cli.Closed() && srv.Closed() })
			if cli.WasReset() || srv.WasReset() {
				t.Fatal("orderly close reported a reset")
			}
			r.checkOrder("dialer", cli, sock.EvConnected)
			r.checkOrder("acceptor", srv, sock.EvAccepted)

			// Abort: the peer learns of the reset — and its app dials a
			// replacement while handling that Hangup (the churn pattern).
			// Both flows stay accounted: the old one is freed, the new
			// one connects. An app running inside the stack's processing
			// pass would re-enter it here; events cannot.
			cli, srv = r.connect()
			if !a.Listen(81) {
				t.Fatal("listen refused")
			}
			var repl sock.Conn
			r.onHangup = func(c sock.Conn) {
				if c == srv && repl == nil {
					repl = b.Dial(addrA, 81)
				}
			}
			cli.Abort()
			r.until("reset", srv.WasReset)
			if !srv.Closed() {
				t.Fatal("reset connection not Closed")
			}
			r.checkOrder("reset acceptor", srv, sock.EvAccepted)
			r.until("replacement handshake", func() bool { return repl != nil && repl.Established() })
			if n := flowsB(); n != 1 {
				t.Fatalf("B holds %d flows after replacing its reset one, want 1", n)
			}
		})
	}
}

// TestDialRefusalIsUntypedNil pins the typed-nil trap: a refusing Dial
// must compare equal to nil through the interface.
func TestDialRefusalIsUntypedNil(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			k := sim.New()
			a, _, _ := sub.mk(k, netsim.NewLink(k, 100, 600, 7))
			// Never run the clock: the library's command queue fills, the
			// software endpoint hits MaxFlows.
			for i := 0; a.Dial(addrB, 80) != nil; i++ {
				if i > 5000 {
					t.Fatal("Dial never refused")
				}
			}
		})
	}
}
