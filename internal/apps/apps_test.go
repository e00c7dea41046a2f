package apps

import (
	"testing"

	"f4t/internal/cpu"
	"f4t/internal/flow"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// fakeConn is an in-memory loopback connection pair for app unit tests.
// Like the real substrates it bills every socket call to its thread's
// core (a Try* call fails on a busy core), delivers sent bytes to the
// peer fakeWireCycles later, and queues a readiness event wherever the
// state an app reads changes — so NextWork sees honest idle spans.
type fakeConn struct {
	peer        *fakeConn
	th          *fakeThread // owning thread; nil for an unowned peer
	handle      flow.ID
	id          int // names the connection in a differential test's call log
	established bool
	avail       int
	inflight    int // bytes sent toward this side, not yet delivered
	sendSpace   int
	peerClosed  bool
	closed      bool
}

const (
	fakeWireCycles = 1000 // one-way delivery delay (4 µs)
	fakeCallCost   = 400  // CPU cycles billed per socket call
)

// bill charges one socket call to the owning thread's core; a try call
// on a busy core is refused.
func (c *fakeConn) bill(try bool) bool {
	if c.th == nil {
		return true
	}
	if try {
		return c.th.core.Run(cpu.CatF4TLib, fakeCallCost)
	}
	c.th.core.RunQueued(cpu.CatF4TLib, fakeCallCost)
	return true
}

// push queues a readiness event for this side's thread.
func (c *fakeConn) push(kind host.ConnEventKind) {
	if c.th != nil {
		c.th.events = append(c.th.events, host.ConnEvent{Kind: kind, Conn: c})
	}
}

// fakeCall is one socket call an app made, with its result.
type fakeCall struct {
	conn, n, got int
	op           byte // 's'end or 'r'ecv
}

// logged records a call in the owning thread's call log, if it keeps one.
func (c *fakeConn) logged(op byte, n, got int) int {
	if c.th != nil && c.th.calls != nil {
		*c.th.calls = append(*c.th.calls, fakeCall{c.id, n, got, op})
	}
	return got
}

func (c *fakeConn) TrySend(n int, _ []byte) int    { return c.logged('s', n, c.send(n, true)) }
func (c *fakeConn) SendQueued(n int, _ []byte) int { return c.logged('s', n, c.send(n, false)) }
func (c *fakeConn) send(n int, try bool) int {
	if !c.established || c.closed || !c.bill(try) {
		return 0
	}
	if n > c.sendSpace {
		n = c.sendSpace
	}
	if n <= 0 {
		return 0
	}
	c.sendSpace -= n
	peer := c.peer
	peer.inflight += n
	c.th.k.After(fakeWireCycles, func() {
		peer.inflight -= n
		peer.avail += n
		peer.push(host.EvReadable)
	})
	return n
}
func (c *fakeConn) TryRecv(max int) int    { return c.logged('r', max, c.recv(max, true)) }
func (c *fakeConn) RecvQueued(max int) int { return c.logged('r', max, c.recv(max, false)) }
func (c *fakeConn) recv(max int, try bool) int {
	n := c.avail
	if n > max {
		n = max
	}
	if n <= 0 || !c.bill(try) {
		return 0
	}
	c.avail -= n
	return n
}
func (c *fakeConn) Available() int    { return c.avail }
func (c *fakeConn) SendSpace() int    { return c.sendSpace }
func (c *fakeConn) Close()            { c.closed = true }
func (c *fakeConn) Established() bool { return c.established }
func (c *fakeConn) PeerClosed() bool  { return c.peerClosed }
func (c *fakeConn) Closed() bool      { return c.closed }
func (c *fakeConn) Handle() flow.ID   { return c.handle }

// hangup queues this side's terminal EvHangup: like sock.Queue, the
// thread frees the handle at the Poll that delivers it.
func (c *fakeConn) hangup() {
	c.closed = true
	c.push(host.EvHangup)
	c.th.dying = append(c.th.dying, c.handle)
}

// fakeThread implements host.Thread over fakeConns; Dial connects to the
// fake server thread and fires the accept/connect events.
type fakeThread struct {
	k      *sim.Kernel
	core   *cpu.Core
	events []host.ConnEvent
	conns  []*fakeConn // dialed, client side
	server *fakeThread
	// dialGate lets tests simulate full command queues (Dial → nil).
	dialGate func() bool

	handles flow.IDs
	dying   []flow.ID // handles of queued terminal hangups, freed by Poll

	// A differential test's world: its connection numbering and the log
	// of the app's socket calls (nil outside those tests).
	ids   *int
	calls *[]fakeCall
}

func (t *fakeThread) open() flow.ID {
	h, _ := t.handles.Alloc(1 << 30)
	return h
}

func newFakeThread(k *sim.Kernel, server *fakeThread) *fakeThread {
	return &fakeThread{k: k, core: cpu.NewCore(k), server: server}
}

func (t *fakeThread) Core() *cpu.Core { return t.core }
func (t *fakeThread) Listen(uint16)   {}
func (t *fakeThread) Dial(int, uint16) host.Conn {
	if t.dialGate != nil && !t.dialGate() {
		return nil
	}
	cli := &fakeConn{th: t, handle: t.open(), established: true, sendSpace: 1 << 20}
	if t.ids != nil {
		*t.ids++
		cli.id = *t.ids
	}
	srv := &fakeConn{th: t.server, established: true, sendSpace: 1 << 20, peer: cli}
	if t.server != nil {
		srv.handle = t.server.open()
	}
	cli.peer = srv
	t.conns = append(t.conns, cli)
	srv.push(host.EvAccepted)
	cli.push(host.EvConnected)
	return cli
}
func (t *fakeThread) Poll() []host.ConnEvent {
	for _, h := range t.dying {
		t.handles.Free(h)
	}
	t.dying = t.dying[:0]
	out := t.events
	t.events = nil
	return out
}
func (t *fakeThread) EventsPending() bool { return len(t.events) > 0 }

// assertSkipped fails unless the kernel skipped cycles, i.e. the rig's
// NextWork methods reported idleness rather than pinning every cycle.
func assertSkipped(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if k.SkippedCycles() == 0 {
		t.Fatalf("no cycles skipped in %d", k.Now())
	}
}

func TestEchoAppsRoundTrip(t *testing.T) {
	k := sim.New()
	server := newFakeThread(k, nil)
	client := newFakeThread(k, server)

	srv := NewEchoServer([]host.Thread{server}, 9001, 128)
	cli := NewEchoClient(k, []host.Thread{client}, 0, 9001, 128, 4)
	k.Register(srv)
	k.Register(cli)
	k.Run(10_000)
	if !cli.Ready() {
		t.Fatalf("echo client not ready: %d established", cli.Established())
	}
	if cli.Requests.Total() == 0 {
		t.Fatal("no echo round trips completed")
	}
	if cli.Latency.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	assertSkipped(t, k)
}

func TestHTTPServerServesWrk(t *testing.T) {
	k := sim.New()
	serverTh := newFakeThread(k, nil)
	clientTh := newFakeThread(k, serverTh)
	costs := cpu.DefaultCosts()

	srv := NewHTTPServer([]host.Thread{serverTh}, 80, 128, 256, costs)
	wrk := NewWrk(k, []host.Thread{clientTh}, 0, 80, 128, 256, 8, costs)
	k.Register(srv)
	k.Register(wrk)
	k.Run(200_000)
	if srv.Requests.Total() == 0 || wrk.Responses.Total() == 0 {
		t.Fatalf("srv=%d wrk=%d", srv.Requests.Total(), wrk.Responses.Total())
	}
	// Closed loop: responses cannot exceed requests served.
	if wrk.Responses.Total() > srv.Requests.Total() {
		t.Fatal("more responses than served requests")
	}
	// The server charged app + kernel work.
	if serverTh.core.Spent(cpu.CatApp) == 0 || serverTh.core.Spent(cpu.CatKernel) == 0 {
		t.Fatal("HTTP server charged no app/kernel work")
	}
	assertSkipped(t, k)
}

func TestBulkSenderPushes(t *testing.T) {
	k := sim.New()
	serverTh := newFakeThread(k, nil)
	clientTh := newFakeThread(k, serverTh)
	sink := NewSink([]host.Thread{serverTh}, 5001)
	b := NewBulkSender([]host.Thread{clientTh}, 0, 5001, 128)
	k.Register(sink)
	k.Register(b)
	k.Run(10_000)
	if b.Requests.Total() == 0 || sink.Delivered.Total() == 0 {
		t.Fatalf("requests=%d delivered=%d", b.Requests.Total(), sink.Delivered.Total())
	}
	srv := clientTh.conns[0].peer
	if got := sink.Delivered.Total() + int64(srv.avail+srv.inflight); got != b.Bytes.Total() {
		t.Fatalf("byte conservation: sent %d, delivered+unread+in flight %d", b.Bytes.Total(), got)
	}
	assertSkipped(t, k)
}

func TestRoundRobinRotation(t *testing.T) {
	k := sim.New()
	serverTh := newFakeThread(k, nil)
	clientTh := newFakeThread(k, serverTh)
	sink := NewSink([]host.Thread{serverTh}, 5001)
	rr := NewRoundRobinSender([]host.Thread{clientTh}, 0, 5001, 128, 16)
	k.Register(sink)
	k.Register(rr)
	k.Run(10_000)
	if !rr.Ready() {
		t.Fatal("rotation flows not established")
	}
	if rr.Requests.Total() == 0 {
		t.Fatal("no requests sent")
	}
}

func TestDialerRampWindow(t *testing.T) {
	k := sim.New()
	th := newFakeThread(k, nil)
	// Gate dials so connections never establish... they establish
	// immediately in the fake, so instead verify the want count and
	// pacing bound: with dialsPerTick=2 the dialer needs want/2 ticks.
	d := newDialer([]host.Thread{th}, 0, 1, 10, nil)
	if d.tick() {
		t.Fatal("done after one tick with want=10, pace=2")
	}
	for i := 0; i < 4; i++ {
		d.tick()
	}
	if !d.allEstablished() || d.established() != 10 {
		t.Fatalf("established = %d", d.established())
	}
}

func TestDialerRetriesNilDials(t *testing.T) {
	k := sim.New()
	th := newFakeThread(k, nil)
	allow := false
	th.dialGate = func() bool { return allow }
	d := newDialer([]host.Thread{th}, 0, 1, 3, nil)
	for i := 0; i < 5; i++ {
		if d.tick() {
			t.Fatal("done while dials are refused")
		}
	}
	allow = true
	d.tick()
	d.tick()
	if !d.allEstablished() {
		t.Fatal("dialer did not recover once dials were accepted")
	}
}

func TestConnSetSemantics(t *testing.T) {
	s := new(connSet)
	a := &fakeConn{handle: 0}
	b := &fakeConn{handle: 1}
	s.Add(a)
	s.Add(b)
	s.Add(a) // idempotent
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	visited := 0
	s.Each(func(c host.Conn) {
		visited++
		s.Remove(c) // removal during iteration is allowed
	})
	if visited != 2 || s.Len() != 0 {
		t.Fatalf("visited=%d len=%d", visited, s.Len())
	}
}
