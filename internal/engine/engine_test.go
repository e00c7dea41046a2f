package engine_test

import (
	"bytes"
	"testing"

	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/softstack"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// rig is two FtEngines with their host libraries, connected by a link.
// Completion queues are polled once per cycle; tests receive events
// through the ev1/ev2 dispatchers (set them before running).
type rig struct {
	k        *sim.Kernel
	link     *netsim.Link
	e1, e2   *engine.Engine
	l1, l2   *softstack.Lib
	ev1, ev2 func(sock.Event)
}

func newRig(t *testing.T, mutate func(*engine.Config)) *rig {
	return newRigLink(t, 100, mutate)
}

// newRigLink is newRig with a configurable link speed (bottleneck tests).
func newRigLink(t *testing.T, gbps int64, mutate func(*engine.Config)) *rig {
	t.Helper()
	k := sim.New()
	link := netsim.NewLink(k, gbps, 600, 99)

	cfg1 := engine.DefaultConfig()
	cfg1.IP = wire.MakeAddr(10, 0, 0, 1)
	cfg1.MAC = wire.MAC{2, 0, 0, 0, 0, 1}
	cfg1.CarryBytes = true
	cfg1.Seed = 1
	cfg2 := cfg1
	cfg2.IP = wire.MakeAddr(10, 0, 0, 2)
	cfg2.MAC = wire.MAC{2, 0, 0, 0, 0, 2}
	cfg2.Seed = 2
	if mutate != nil {
		mutate(&cfg1)
		mutate(&cfg2)
	}
	cfg1.IP = wire.MakeAddr(10, 0, 0, 1) // mutate must not break identity
	cfg2.IP = wire.MakeAddr(10, 0, 0, 2)

	e1 := engine.New(k, cfg1, link.AtoB.Send)
	e2 := engine.New(k, cfg2, link.BtoA.Send)
	link.AtoB.SetSink(e2.DeliverPacket)
	link.BtoA.SetSink(e1.DeliverPacket)
	k.Register(sim.TickerFunc(e1.Tick))
	k.Register(sim.TickerFunc(e2.Tick))

	l1 := softstack.NewLib(k, e1, 0)
	l2 := softstack.NewLib(k, e2, 0)
	r := &rig{k: k, link: link, e1: e1, e2: e2, l1: l1, l2: l2}
	// Poll the completion queues every cycle (the free-running library of
	// functional tests; the CPU-costed experiments pace this themselves).
	k.Register(sim.TickerFunc(func(int64) {
		for _, ev := range l1.Poll() {
			if r.ev1 != nil {
				r.ev1(ev)
			}
		}
		for _, ev := range l2.Poll() {
			if r.ev2 != nil {
				r.ev2(ev)
			}
		}
	}))
	return r
}

func (r *rig) run(t *testing.T, pred func() bool, budget int64, what string) {
	t.Helper()
	if !r.k.RunUntil(pred, budget) {
		t.Fatalf("timed out waiting for %s after %d cycles (e1=%v e2=%v)", what, budget, r.e1, r.e2)
	}
}

// TestNewRefusesZeroDesignPoint: DefaultConfig is the one home of the
// reference design's values, so New fills none in. A config that left
// one of them zero is a bug, caught at construction.
func TestNewRefusesZeroDesignPoint(t *testing.T) {
	for name, zero := range map[string]func(*engine.Config){
		"NumFPCs":      func(c *engine.Config) { c.NumFPCs = 0 },
		"SlotsPerFPC":  func(c *engine.Config) { c.SlotsPerFPC = 0 },
		"MaxFlows":     func(c *engine.Config) { c.MaxFlows = 0 },
		"Channels":     func(c *engine.Config) { c.Channels = 0 },
		"CommandBytes": func(c *engine.Config) { c.CommandBytes = 0 },
		"Proto":        func(c *engine.Config) { c.Proto = tcpproc.Config{} },
	} {
		cfg := engine.DefaultConfig()
		zero(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a zero %s", name)
				}
			}()
			engine.New(sim.New(), cfg, nil)
		}()
	}
}

func TestEngineHandshake(t *testing.T) {
	r := newRig(t, nil)
	r.l2.Listen(80)
	s := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return s.Established() }, 1_000_000, "engine handshake")
	if r.e1.FlowCount() != 1 || r.e2.FlowCount() != 1 {
		t.Fatalf("flow counts: %d/%d, want 1/1", r.e1.FlowCount(), r.e2.FlowCount())
	}
}

func TestEngineDataTransfer(t *testing.T) {
	r := newRig(t, nil)
	var srv sock.Conn
	r.l2.Listen(80)
	// Capture accepts via polling events in a ticker.
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	msg := []byte("through the FPCs and back again — F4T engine data path test")
	if n := cli.Send(msg); n != len(msg) {
		t.Fatalf("Send = %d, want %d", n, len(msg))
	}
	r.run(t, func() bool { return srv.Available() >= len(msg) }, 2_000_000, "delivery")
	got, n := srv.Recv(4096)
	if n != len(msg) || !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %q (%d), want %q", got, n, msg)
	}
}

func TestEngineBulkTransfer(t *testing.T) {
	r := newRig(t, nil)
	var srv sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	sent := 0
	r.k.Register(sim.TickerFunc(func(int64) {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}))
	r.run(t, func() bool { return srv.Available() >= len(data) }, 30_000_000, "bulk delivery")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("bulk corrupted: %d bytes", n)
	}
}

func TestEngineClose(t *testing.T) {
	r := newRig(t, nil)
	var srv sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	cli.Close()
	r.run(t, func() bool { return srv.PeerClosed() }, 2_000_000, "FIN seen")
	srv.Close()
	r.run(t, func() bool { return srv.Closed() && cli.Closed() }, 20_000_000, "full teardown")
	r.run(t, func() bool { return r.e1.FlowCount() == 0 && r.e2.FlowCount() == 0 }, 20_000_000, "flow state freed")
}

func TestEngineInteropWithSoftwareStack(t *testing.T) {
	// FtEngine on one side, the plain software endpoint on the other:
	// the protocol must interoperate both ways.
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 7)

	cfg := engine.DefaultConfig()
	cfg.IP = wire.MakeAddr(10, 0, 0, 1)
	cfg.MAC = wire.MAC{2, 0, 0, 0, 0, 1}
	cfg.CarryBytes = true
	eng := engine.New(k, cfg, link.AtoB.Send)

	sw := stack.New(k, stack.Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: tcpproc.DefaultConfig(), Alg: "cubic", CarryBytes: true, Seed: 3,
	}, link.BtoA.Send)
	link.AtoB.SetSink(func(p *wire.Packet) { sw.HandlePacket(p) })
	link.BtoA.SetSink(eng.DeliverPacket)
	k.Register(sim.TickerFunc(eng.Tick))
	k.Register(sw)

	lib := softstack.NewLib(k, eng, 0)
	k.Register(sim.TickerFunc(func(int64) { lib.Poll() }))

	// Engine dials the software stack.
	var srv *stack.Conn
	sw.Listen(80, func(c *stack.Conn) { srv = c })
	cli := lib.Dial(sw.Opt.IP, 80)
	if !k.RunUntil(func() bool { return cli.Established() && srv != nil }, 2_000_000) {
		t.Fatal("engine→software handshake timed out")
	}
	msg := []byte("hardware speaks to software")
	cli.Send(msg)
	if !k.RunUntil(func() bool { return srv.Available() >= len(msg) }, 2_000_000) {
		t.Fatal("engine→software data timed out")
	}
	got, _ := srv.Recv(1024)
	if !bytes.Equal(got, msg) {
		t.Fatalf("engine→software data = %q", got)
	}

	// And the reverse direction over the same connection.
	reply := []byte("software answers hardware, with more bytes to say")
	srv.Send(reply)
	if !k.RunUntil(func() bool { return cli.Available() >= len(reply) }, 2_000_000) {
		t.Fatal("software→engine data timed out")
	}
	back, _ := cli.Recv(1024)
	if !bytes.Equal(back, reply) {
		t.Fatalf("software→engine data = %q", back)
	}
}

func TestEngineDRAMMigration(t *testing.T) {
	// Tiny FPC capacity forces flows through DRAM: 1 FPC × 8 slots, 32
	// concurrent echo flows. Every flow must keep making progress.
	r := newRig(t, func(c *engine.Config) {
		c.NumFPCs = 1
		c.SlotsPerFPC = 8
		c.Memory = memmgr.DDR
	})
	var srvs []sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		switch ev.Kind {
		case sock.EvAccepted:
			srvs = append(srvs, ev.Conn)
		case sock.EvReadable:
			// Echo server: bounce everything back.
			if data, n := ev.Conn.Recv(4096); n > 0 {
				ev.Conn.Send(data)
			}
		}
	}

	const flows = 32
	clis := make([]sock.Conn, flows)
	for i := range clis {
		clis[i] = r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	}
	r.run(t, func() bool {
		for _, c := range clis {
			if !c.Established() {
				return false
			}
		}
		return true
	}, 50_000_000, "32 handshakes through 8 FPC slots")

	// Ping-pong one round on every flow.
	msg := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef" +
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	for _, c := range clis {
		if n := c.Send(msg); n != len(msg) {
			t.Fatalf("send on flow: %d/%d", n, len(msg))
		}
	}
	r.run(t, func() bool {
		for _, c := range clis {
			if c.Available() < len(msg) {
				return false
			}
		}
		return true
	}, 100_000_000, "echo round trip across DRAM-resident flows")
	for i, c := range clis {
		got, _ := c.Recv(4096)
		if !bytes.Equal(got, msg) {
			t.Fatalf("flow %d echoed %q", i, got)
		}
	}
	if r.e1.Mem().FlowCount()+r.e2.Mem().FlowCount() == 0 {
		t.Error("expected some flows resident in DRAM with 8 FPC slots and 32 flows")
	}
	if r.e1.Scheduler().Migrations.Total() == 0 {
		t.Error("expected TCB migrations to have occurred")
	}
}

func TestEngineLossRecovery(t *testing.T) {
	r := newRig(t, nil)
	r.link.AtoB.SetFaults(netsim.Faults{LossProb: 0.01})
	var srv sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 30_000_000, "handshake on lossy link")

	data := make([]byte, 128*1024)
	for i := range data {
		data[i] = byte(i * 13)
	}
	sent := 0
	r.k.Register(sim.TickerFunc(func(int64) {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}))
	r.run(t, func() bool { return srv.Available() >= len(data) }, 500_000_000, "lossy bulk delivery")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("lossy engine transfer corrupted: %d bytes", n)
	}
}

func TestEngineStallBaselineStillCorrect(t *testing.T) {
	// The w-RMW baseline design (Fig 2/15/16) is slower but must remain
	// protocol-correct.
	r := newRig(t, func(c *engine.Config) {
		c.Mode = 1 // fpc.ModeStall
		c.StallNum, c.StallDen = 17, 1
		c.NumFPCs = 1
		c.Coalesce = false
	})
	var srv sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 5_000_000, "baseline handshake")
	msg := bytes.Repeat([]byte("baseline"), 512)
	cli.Send(msg)
	r.run(t, func() bool { return srv.Available() >= len(msg) }, 20_000_000, "baseline delivery")
	got, _ := srv.Recv(len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatal("baseline design corrupted data")
	}
}

func TestEngineAnswersPing(t *testing.T) {
	// FtEngine implements ICMP for diagnostics (§4.1.2): a software
	// endpoint pings the engine and must get an echo reply.
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 17)
	cfg := engine.DefaultConfig()
	cfg.IP = wire.MakeAddr(10, 0, 0, 1)
	cfg.MAC = wire.MAC{2, 0, 0, 0, 0, 1}
	eng := engine.New(k, cfg, link.AtoB.Send)
	sw := stack.New(k, stack.Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: tcpproc.DefaultConfig(), Seed: 9,
	}, link.BtoA.Send)
	var reply *wire.Packet
	link.AtoB.SetSink(func(p *wire.Packet) {
		if p.Kind == wire.KindICMP && p.ICMP.Type == wire.ICMPEchoReply {
			reply = p
		}
		sw.HandlePacket(p)
	})
	link.BtoA.SetSink(eng.DeliverPacket)
	k.Register(sim.TickerFunc(eng.Tick))
	k.Register(sw)

	// The software side resolves the engine's MAC via ARP first — this
	// also exercises the engine's ARP responder.
	if sw.Ping(cfg.IP, 21, 1, []byte("probe")) {
		t.Fatal("ping should defer until ARP resolves")
	}
	ok := k.RunUntil(func() bool {
		if reply == nil {
			sw.Ping(cfg.IP, 21, 1, []byte("probe"))
		}
		return reply != nil
	}, 1_000_000)
	if !ok {
		t.Fatal("no echo reply from the engine")
	}
	if reply.ICMP.ID != 21 || string(reply.Payload) != "probe" {
		t.Fatalf("reply = %+v %q", reply.ICMP, reply.Payload)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	// Identical seeds must give bit-identical runs (the whole simulation
	// is deterministic by construction).
	run := func() (int64, int64, int64) {
		r := newRig(t, nil)
		var srv sock.Conn
		r.l2.Listen(80)
		r.ev2 = func(ev sock.Event) {
			switch ev.Kind {
			case sock.EvAccepted:
				srv = ev.Conn
			case sock.EvReadable:
				if _, n := ev.Conn.Recv(4096); n > 0 {
					_ = n
				}
			}
		}
		cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
		r.k.RunUntil(func() bool { return cli.Established() && srv != nil }, 1_000_000)
		for i := 0; i < 50; i++ {
			cli.SendModelled(700)
			r.k.Run(500)
		}
		r.k.Run(100_000)
		return r.e1.TxPkts.Total(), r.e2.RxPkts.Total(), r.k.Now()
	}
	a1, a2, a3 := run()
	b1, b2, b3 := run()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, a2, a3, b1, b2, b3)
	}
}

func TestEngineDCTCPOverECN(t *testing.T) {
	// The hardware path runs the DCTCP FPU program through an ECN-marking
	// bottleneck slower than the NIC (a 25 Gbps switch hop): the queue
	// builds there, marks arrive, the window regulates, nothing drops.
	r := newRigLink(t, 25, func(c *engine.Config) {
		c.Alg = "dctcp"
		c.Proto.ECN = true
	})
	r.link.AtoB.SetAQM(netsim.ECNThreshold(4_000, 0))

	var srv sock.Conn
	r.l2.Listen(80)
	r.ev2 = func(ev sock.Event) {
		if ev.Kind == sock.EvAccepted {
			srv = ev.Conn
		}
	}
	cli := r.l1.Dial(wire.MakeAddr(10, 0, 0, 2), 80)
	r.run(t, func() bool { return cli.Established() && srv != nil }, 1_000_000, "handshake")

	data := make([]byte, 512*1024)
	for i := range data {
		data[i] = byte(i * 29)
	}
	sent := 0
	r.k.Register(sim.TickerFunc(func(int64) {
		for sent < len(data) {
			n := cli.Send(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}))
	r.run(t, func() bool { return srv.Available() >= len(data) }, 50_000_000, "DCTCP bulk")
	got, n := srv.Recv(len(data))
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatal("engine DCTCP transfer corrupted")
	}
	if r.link.AtoB.MarkedPkts == 0 {
		t.Fatal("no CE marks applied")
	}
	if r.link.AtoB.DroppedPkts != 0 {
		t.Fatalf("drops (%d) despite marking", r.link.AtoB.DroppedPkts)
	}
	if alpha := r.e1.TCB(0).CCVars[0]; alpha == 0 {
		t.Fatal("engine-side DCTCP alpha never moved")
	}
}
