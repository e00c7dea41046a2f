package host

import (
	"testing"

	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

var (
	addrA = wire.MakeAddr(10, 9, 0, 1)
	addrB = wire.MakeAddr(10, 9, 0, 2)
	macA  = wire.MAC{2, 9, 0, 0, 0, 1}
	macB  = wire.MAC{2, 9, 0, 0, 0, 2}
)

func linuxPair(coresA, coresB int) (*sim.Kernel, *LinuxMachine, *LinuxMachine) {
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 5)
	costs := cpu.DefaultCosts()
	optA := stack.Options{IP: addrA, MAC: macA, Cfg: tcpproc.DefaultConfig(), Seed: 1}
	optB := stack.Options{IP: addrB, MAC: macB, Cfg: tcpproc.DefaultConfig(), Seed: 2}
	a := NewLinuxMachine(k, optA, coresA, costs, []wire.Addr{addrB}, link.AtoB.Send)
	b := NewLinuxMachine(k, optB, coresB, costs, []wire.Addr{addrA}, link.BtoA.Send)
	a.Endpoint().LearnPeer(addrB, macB)
	b.Endpoint().LearnPeer(addrA, macA)
	link.AtoB.SetSink(b.DeliverPacket)
	link.BtoA.SetSink(a.DeliverPacket)
	k.Register(sim.TickerFunc(a.Tick))
	k.Register(sim.TickerFunc(b.Tick))
	return k, a, b
}

func f4tPair(coresA, coresB int) (*sim.Kernel, *F4TMachine, *F4TMachine) {
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 6)
	costs := cpu.DefaultCosts()
	cfgA := engine.DefaultConfig()
	cfgA.IP, cfgA.MAC, cfgA.Channels, cfgA.Seed = addrA, macA, coresA, 1
	cfgB := engine.DefaultConfig()
	cfgB.IP, cfgB.MAC, cfgB.Channels, cfgB.Seed = addrB, macB, coresB, 2
	ea := engine.New(k, cfgA, link.AtoB.Send)
	eb := engine.New(k, cfgB, link.BtoA.Send)
	ea.LearnPeer(addrB, macB)
	eb.LearnPeer(addrA, macA)
	link.AtoB.SetSink(eb.DeliverPacket)
	link.BtoA.SetSink(ea.DeliverPacket)
	a := NewF4TMachine(k, ea, coresA, costs, []wire.Addr{addrB})
	b := NewF4TMachine(k, eb, coresB, costs, []wire.Addr{addrA})
	k.Register(sim.TickerFunc(ea.Tick))
	k.Register(sim.TickerFunc(eb.Tick))
	k.Register(sim.TickerFunc(a.Tick))
	k.Register(sim.TickerFunc(b.Tick))
	return k, a, b
}

// exercisePair runs the same app logic over either machine pair.
func exercisePair(t *testing.T, k *sim.Kernel, a, b Machine) {
	t.Helper()
	server := b.Threads()[0]
	server.Listen(80)
	k.Run(3_000)

	client := a.Threads()[0]
	conn := client.Dial(0, 80)
	if conn == nil {
		t.Fatal("dial returned nil on an empty queue")
	}
	if !k.RunUntil(conn.Established, 3_000_000) {
		t.Fatal("handshake timed out")
	}

	// Transfer 64 KB; both sides pump via readiness.
	const total = 64 * 1024
	sent, received := 0, 0
	var srvConn Conn
	ok := k.RunUntil(func() bool {
		for _, ev := range server.Poll() {
			switch ev.Kind {
			case EvAccepted:
				srvConn = ev.Conn
			case EvReadable:
				received += ev.Conn.TryRecv(1 << 20)
			}
		}
		if srvConn != nil {
			received += srvConn.TryRecv(1 << 20)
		}
		client.Poll()
		if sent < total {
			sent += conn.TrySend(total-sent, nil)
		}
		return received >= total
	}, 30_000_000)
	if !ok {
		t.Fatalf("transfer stalled: sent=%d received=%d", sent, received)
	}

	// CPU time must have been charged on both sides.
	var spentA, spentB int64
	for c := cpu.CatApp; c < cpu.CatIdle; c++ {
		spentA += a.Pool().SpentTotal(c)
		spentB += b.Pool().SpentTotal(c)
	}
	if spentA == 0 || spentB == 0 {
		t.Fatalf("no CPU accounting: a=%d b=%d", spentA, spentB)
	}

	// Orderly shutdown: the client closes; the server answers the FIN
	// with its own close; both sides must reach CLOSED.
	conn.Close()
	serverClosed := false
	if !k.RunUntil(func() bool {
		for _, ev := range server.Poll() {
			if ev.Kind == EvHangup && !serverClosed {
				serverClosed = true
				srvConn.Close()
			}
		}
		client.Poll()
		return conn.Closed()
	}, 60_000_000) {
		t.Fatal("close timed out")
	}
}

func TestLinuxMachineEndToEnd(t *testing.T) {
	k, a, b := linuxPair(2, 2)
	exercisePair(t, k, a, b)
	// The Linux path charges TCP and kernel buckets distinctly.
	if a.Pool().SpentTotal(cpu.CatTCP) == 0 || a.Pool().SpentTotal(cpu.CatKernel) == 0 {
		t.Fatal("Linux cost split missing a bucket")
	}
	if a.Pool().SpentTotal(cpu.CatF4TLib) != 0 {
		t.Fatal("Linux machine charged the F4T bucket")
	}
}

func TestF4TMachineEndToEnd(t *testing.T) {
	k, a, b := f4tPair(2, 2)
	exercisePair(t, k, a, b)
	if a.Pool().SpentTotal(cpu.CatF4TLib) == 0 {
		t.Fatal("F4T machine charged nothing to the library bucket")
	}
	if a.Pool().SpentTotal(cpu.CatTCP) != 0 {
		t.Fatal("F4T machine charged TCP cycles — the offload removed those")
	}
}

func TestF4TSendCheaperThanLinux(t *testing.T) {
	// The core claim: per accepted byte, the F4T host spends far fewer
	// CPU cycles than the Linux host.
	perByte := func(mk func(int, int) (*sim.Kernel, Machine, Machine)) float64 {
		k, a, b := mkPair(mk)
		server := b.Threads()[0]
		server.Listen(80)
		k.Run(3_000)
		client := a.Threads()[0]
		conn := client.Dial(0, 80)
		k.RunUntil(conn.Established, 3_000_000)
		sent := 0
		k.RunUntil(func() bool {
			client.Poll()
			for _, ev := range server.Poll() {
				if ev.Kind == EvReadable {
					ev.Conn.TryRecv(1 << 20)
				}
			}
			sent += conn.TrySend(128, nil)
			return sent >= 100_000
		}, 50_000_000)
		var spent int64
		for c := cpu.CatApp; c < cpu.CatIdle; c++ {
			spent += a.Pool().SpentTotal(c)
		}
		return float64(spent) / float64(sent)
	}
	linux := perByte(func(ca, cb int) (*sim.Kernel, Machine, Machine) {
		k, a, b := linuxPair(ca, cb)
		return k, a, b
	})
	f4t := perByte(func(ca, cb int) (*sim.Kernel, Machine, Machine) {
		k, a, b := f4tPair(ca, cb)
		return k, a, b
	})
	if f4t*5 > linux {
		t.Fatalf("F4T per-byte cost %.1f not ≪ Linux %.1f", f4t, linux)
	}
}

func mkPair(mk func(int, int) (*sim.Kernel, Machine, Machine)) (*sim.Kernel, Machine, Machine) {
	return mk(1, 2)
}

// bothPairs builds each machine pair behind the Machine interface.
var bothPairs = []struct {
	name string
	mk   func(coresA, coresB int) (*sim.Kernel, Machine, Machine)
}{
	{"linux", func(ca, cb int) (*sim.Kernel, Machine, Machine) {
		k, a, b := linuxPair(ca, cb)
		return k, a, b
	}},
	{"f4t", func(ca, cb int) (*sim.Kernel, Machine, Machine) {
		k, a, b := f4tPair(ca, cb)
		return k, a, b
	}},
}

// TestDialAtCeilingReturnsNil: a host that cannot take another
// connection (Linux at MaxFlows, F4T with a full command queue) returns
// an untyped nil Conn for the app's retry loop — it used to panic on the
// Linux machine, whose thread wrapped the endpoint's nil.
func TestDialAtCeilingReturnsNil(t *testing.T) {
	for _, p := range bothPairs {
		t.Run(p.name, func(t *testing.T) {
			_, a, _ := p.mk(1, 1)
			if lm, ok := a.(*LinuxMachine); ok {
				lm.Endpoint().Opt.MaxFlows = 2
			}
			// The clock never runs, so nothing drains or closes.
			th := a.Threads()[0]
			for i := 0; th.Dial(0, 80) != nil; i++ {
				if i > 5000 {
					t.Fatal("Dial never refused")
				}
			}
			if lm, ok := a.(*LinuxMachine); ok && lm.Endpoint().Conns() != 2 {
				t.Fatalf("Linux host holds %d flows at a ceiling of 2", lm.Endpoint().Conns())
			}
		})
	}
}

// TestPollSteadyStateAllocs extends softstack.TestPollSteadyStateAllocs
// to the app-facing path of both machines: once the event
// double-buffers, the Poll translation buffer and the rings have grown,
// a send → poll → recv cycle through Thread and Conn must not allocate.
// (The Linux thread used to hand its event slice away on every Poll and
// regrow it from nil, and its stack boxed every flow.Event for an
// observer hook nobody set.) That includes the frames: whichever stack
// parses a TCP frame recycles it (wire/pool.go), so the Linux machine's
// RX path leaves the collector nothing either.
func TestPollSteadyStateAllocs(t *testing.T) {
	for _, p := range bothPairs {
		t.Run(p.name, func(t *testing.T) {
			k, a, b := p.mk(1, 1)
			server, client := b.Threads()[0], a.Threads()[0]
			server.Listen(80)
			k.Run(3_000)
			conn := client.Dial(0, 80)
			var srv Conn
			if !k.RunUntil(func() bool {
				client.Poll()
				for _, ev := range server.Poll() {
					if ev.Kind == EvAccepted {
						srv = ev.Conn
					}
				}
				return conn.Established() && srv != nil
			}, 3_000_000) {
				t.Fatal("handshake timed out")
			}
			moved := 0
			step := func() {
				conn.SendQueued(1024, nil)
				k.Run(4_000)
				for range client.Poll() {
				}
				for _, ev := range server.Poll() {
					if ev.Kind == EvReadable {
						moved += ev.Conn.RecvQueued(1 << 20)
					}
				}
			}
			for i := 0; i < 100; i++ { // warm up: grow the buffers
				step()
			}
			if moved == 0 {
				t.Fatal("warmup moved no bytes; rig is not in steady state")
			}
			if avg := testing.AllocsPerRun(200, step); avg > 0.1 {
				t.Fatalf("steady-state cycle allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

func TestGROTable(t *testing.T) {
	var g groTable
	tup := func(i int) wire.FourTuple { return wire.FourTuple{LocalPort: uint16(i)} }
	if g.hit(tup(1)) {
		t.Fatal("first touch hit")
	}
	if !g.hit(tup(1)) {
		t.Fatal("second touch missed")
	}
	// Fill beyond capacity: the first entry eventually evicts.
	for i := 2; i <= 9; i++ {
		g.hit(tup(i))
	}
	if g.hit(tup(1)) {
		t.Fatal("evicted entry still hits")
	}
}

func TestRSSDistributesFlows(t *testing.T) {
	k, a, b := linuxPair(4, 4)
	server := b.Threads()[0]
	server.Listen(80)
	k.Run(3_000)
	conns := make([]Conn, 32)
	for i := range conns {
		conns[i] = a.Threads()[i%4].Dial(0, 80)
	}
	ok := k.RunUntil(func() bool {
		for _, th := range b.Threads() {
			th.Poll()
		}
		for _, c := range conns {
			if !c.Established() {
				return false
			}
		}
		return true
	}, 20_000_000)
	if !ok {
		t.Fatal("handshakes timed out")
	}
	// RX packets hashed across the receiver's queues: more than one core
	// must have charged softirq time.
	busy := 0
	for _, core := range b.Pool().Cores {
		if core.Spent(cpu.CatTCP) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("RSS concentrated all RX on %d core(s)", busy)
	}
}

// TestConnIdentityAcrossHangups: every event of a connection carries the
// Conn its Dial returned — across the peer-FIN Hangup that leaves it
// open for sending, up to the terminal one.
func TestConnIdentityAcrossHangups(t *testing.T) {
	for _, p := range bothPairs {
		t.Run(p.name, func(t *testing.T) {
			k, a, b := p.mk(1, 1)
			server, client := b.Threads()[0], a.Threads()[0]
			server.Listen(80)
			k.Run(3_000)
			conn := client.Dial(0, 80)
			var srv Conn
			var kinds []ConnEventKind
			foreign := 0
			pump := func() {
				for _, ev := range client.Poll() {
					kinds = append(kinds, ev.Kind)
					if ev.Conn != conn {
						foreign++
					}
				}
				for _, ev := range server.Poll() {
					switch ev.Kind {
					case EvAccepted:
						srv = ev.Conn
					case EvReadable:
						ev.Conn.RecvQueued(1 << 20)
					}
				}
			}
			until := func(what string, pred func() bool) {
				t.Helper()
				if !k.RunUntil(func() bool { pump(); return pred() }, 30_000_000) {
					t.Fatalf("timed out waiting for %s", what)
				}
				pump()
			}
			until("handshake", func() bool { return conn.Established() && srv != nil })
			space := conn.SendSpace()
			srv.Close()
			until("peer FIN", conn.PeerClosed)
			if conn.SendQueued(4096, nil) == 0 {
				t.Fatal("half-closed connection refused to send")
			}
			until("send release", func() bool { return conn.SendSpace() == space })
			conn.Close()
			until("teardown", conn.Closed)
			hangups := 0
			for _, k := range kinds {
				if k == EvHangup {
					hangups++
				}
			}
			if hangups < 2 || kinds[len(kinds)-1] != EvHangup {
				t.Fatalf("client events %v: want a peer-FIN Hangup and a terminal one", kinds)
			}
			if foreign > 0 {
				t.Fatalf("%d of %d client events %v carry a Conn other than Dial's", foreign, len(kinds), kinds)
			}
		})
	}
}
