package softstack

import (
	"bytes"
	"testing"

	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

type rig struct {
	k      *sim.Kernel
	ea, eb *engine.Engine
	la, lb *Lib
}

func newRig(t testing.TB, channels int) *rig {
	t.Helper()
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 11)
	cfgA := engine.DefaultConfig()
	cfgA.IP, cfgA.MAC, cfgA.Seed, cfgA.Channels, cfgA.CarryBytes = wire.MakeAddr(10, 1, 0, 1), wire.MAC{2, 1, 0, 0, 0, 1}, 1, channels, true
	cfgB := cfgA
	cfgB.IP, cfgB.MAC, cfgB.Seed = wire.MakeAddr(10, 1, 0, 2), wire.MAC{2, 1, 0, 0, 0, 2}, 2
	ea := engine.New(k, cfgA, link.AtoB.Send)
	eb := engine.New(k, cfgB, link.BtoA.Send)
	link.AtoB.SetSink(eb.DeliverPacket)
	link.BtoA.SetSink(ea.DeliverPacket)
	ea.LearnPeer(cfgB.IP, cfgB.MAC)
	eb.LearnPeer(cfgA.IP, cfgA.MAC)
	k.Register(sim.TickerFunc(ea.Tick))
	k.Register(sim.TickerFunc(eb.Tick))
	return &rig{k: k, ea: ea, eb: eb, la: NewLib(k, ea, 0), lb: NewLib(k, eb, 0)}
}

// pump advances the simulation, polling only side A's completions; the
// predicate owns side B's queue (so it sees the events it cares about).
func (r *rig) pump(budget int64, pred func() bool) bool {
	for i := int64(0); i < budget; i += 50 {
		r.la.Poll()
		if pred() {
			return true
		}
		r.k.Run(50)
	}
	return pred()
}

func TestLibConnectSendRecv(t *testing.T) {
	r := newRig(t, 1)
	r.lb.Listen(80)
	var srv sock.Conn
	cli := r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80)
	if cli == nil {
		t.Fatal("dial failed")
	}
	ok := r.pump(1_000_000, func() bool {
		for _, ev := range r.lb.Poll() {
			if ev.Kind == sock.EvAccepted {
				srv = ev.Conn
			}
		}
		return cli.Established() && srv != nil
	})
	if !ok {
		t.Fatal("handshake timed out")
	}

	msg := []byte("library to library over the engines")
	if n := cli.Send(msg); n != len(msg) {
		t.Fatalf("send = %d", n)
	}
	if !r.pump(2_000_000, func() bool { r.lb.Poll(); return srv.Available() >= len(msg) }) {
		t.Fatal("delivery timed out")
	}
	got, n := srv.Recv(1024)
	if n != len(msg) || !bytes.Equal(got, msg) {
		t.Fatalf("recv = %q", got)
	}

	// Close both ways.
	cli.Close()
	if !r.pump(3_000_000, func() bool { r.lb.Poll(); return srv.PeerClosed() }) {
		t.Fatal("peer close not seen")
	}
	srv.Close()
	if !r.pump(20_000_000, func() bool { r.lb.Poll(); return cli.Closed() && srv.Closed() }) {
		t.Fatal("teardown timed out")
	}
}

func TestLibDialFailsWhenQueueFull(t *testing.T) {
	r := newRig(t, 1)
	// Saturate the command queue without letting the engine drain it:
	// post raw commands directly.
	n := 0
	for r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80) != nil {
		n++
		if n > 5000 {
			t.Fatal("dial never failed despite a bounded queue")
		}
	}
	if r.la.PostFailures == 0 {
		t.Fatal("no post failures recorded")
	}
}

func TestLibSendBoundedByBuffer(t *testing.T) {
	r := newRig(t, 1)
	r.lb.Listen(80)
	cli := r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80)
	if !r.pump(1_000_000, func() bool { return cli.Established() }) {
		t.Fatal("handshake timed out")
	}
	// Without the peer consuming, sends must stop at the buffer size.
	total := 0
	for i := 0; i < 10000; i++ {
		n := cli.SendModelled(4096)
		if n == 0 {
			break
		}
		total += n
	}
	if total > int(r.ea.TxRingSize()) {
		t.Fatalf("accepted %d bytes into a %d buffer", total, r.ea.TxRingSize())
	}
	if total < int(r.ea.TxRingSize())/2 {
		t.Fatalf("accepted only %d bytes", total)
	}
}

func TestSOReusePortDistribution(t *testing.T) {
	r := newRig(t, 4)
	libs := make([]*Lib, 4)
	libs[0] = r.lb
	for i := 1; i < 4; i++ {
		libs[i] = NewLib(r.k, r.eb, i)
	}
	for _, l := range libs {
		l.Listen(80)
	}
	r.k.Run(3_000)
	clients := make([]sock.Conn, 8)
	for i := range clients {
		clients[i] = r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80)
	}
	accepted := make([]int, 4)
	ok := r.pump(3_000_000, func() bool {
		for i, l := range libs {
			for _, ev := range l.Poll() {
				if ev.Kind == sock.EvAccepted {
					accepted[i]++
				}
			}
		}
		n := 0
		for _, c := range accepted {
			n += c
		}
		return n == 8
	})
	if !ok {
		t.Fatalf("accepts = %v", accepted)
	}
	// SO_REUSEPORT round-robin: every listener got exactly 2.
	for i, n := range accepted {
		if n != 2 {
			t.Fatalf("listener %d accepted %d, want 2 (round-robin): %v", i, n, accepted)
		}
	}
}

func TestAbortReset(t *testing.T) {
	r := newRig(t, 1)
	r.lb.Listen(80)
	var srv sock.Conn
	cli := r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80)
	r.pump(1_000_000, func() bool {
		for _, ev := range r.lb.Poll() {
			if ev.Kind == sock.EvAccepted {
				srv = ev.Conn
			}
		}
		return cli.Established() && srv != nil
	})
	cli.Abort()
	if !r.pump(2_000_000, func() bool { r.lb.Poll(); return srv.WasReset() }) {
		t.Fatal("reset not observed by the peer")
	}
}
