package apps

import (
	"math/rand"
	"reflect"
	"testing"

	"f4t/internal/cpu"
	"f4t/internal/host"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// refWorld is one side of TestAppsMatchRefs: an app on two fake threads
// and the random script that perturbs its connections.
type refWorld struct {
	k      *sim.Kernel
	rng    *rand.Rand
	ths    []*fakeThread
	app    sim.Sleeper
	count  func() int64
	client bool
	whole  bool // feed whole requests only
	ids    int
	calls  []fakeCall
	live   []*fakeConn // open connections, in creation order
	seen   []int       // per thread: dialed connections already in live

	reuses, stale int // handles recycled; of them, while the predecessor sat in a pending queue
}

const refReq, refResp, refFlows = 64, 160, 24

func newRefWorld(seed int64, client, whole bool, mk func(*sim.Kernel, []host.Thread) (sim.Sleeper, func() int64)) *refWorld {
	w := &refWorld{k: sim.New(), rng: rand.New(rand.NewSource(seed)), client: client, whole: whole}
	hts := make([]host.Thread, 2)
	for i := range hts {
		th := newFakeThread(w.k, nil)
		th.ids, th.calls = &w.ids, &w.calls
		if client {
			th.dialGate = func() bool { return w.rng.Intn(3) > 0 }
		}
		w.ths = append(w.ths, th)
		hts[i] = th
	}
	w.seen = make([]int, len(hts))
	w.app, w.count = mk(w.k, hts)
	return w
}

// track adds connections the app dialed since the last call to live,
// counting those that took a handle an earlier one held.
func (w *refWorld) track() {
	for i, th := range w.ths {
		for _, c := range th.conns[w.seen[i]:] {
			w.live = append(w.live, c)
			w.noteReuse(th, c)
		}
		w.seen[i] = len(th.conns)
	}
}

func (w *refWorld) noteReuse(th *fakeThread, c *fakeConn) {
	for _, o := range th.conns {
		if o != c && o.handle == c.handle {
			w.reuses++
			break
		}
	}
	s, ok := w.app.(*HTTPServer)
	for i, t := range w.ths {
		if ok && t == th {
			s.pending[i].Scan(func(q *host.Conn) bool {
				if (*q).Handle() == c.handle {
					w.stale++ // c is not queued yet: this is a predecessor
				}
				return true
			})
		}
	}
}

// perturb runs one step of the script: a few random changes to the
// world's connections and cores, each queuing the readiness event a
// substrate would.
func (w *refWorld) perturb() {
	for n := w.rng.Intn(5); n > 0; n-- {
		th := w.ths[w.rng.Intn(len(w.ths))]
		var c *fakeConn
		at := -1
		if len(w.live) > 0 {
			at = w.rng.Intn(len(w.live))
			c = w.live[at]
		}
		switch op := w.rng.Intn(8); {
		case !w.client && (op == 0 || c == nil): // accept
			w.ids++
			c = &fakeConn{th: th, id: w.ids, handle: th.open(), established: true, sendSpace: 1 << 20}
			c.peer = &fakeConn{peer: c}
			th.conns = append(th.conns, c)
			w.noteReuse(th, c)
			w.live = append(w.live, c)
			c.push(host.EvAccepted)
		case c == nil:
		case op <= 2 && w.client: // the peer echoes what reached it
			if m := c.peer.avail; m > 0 {
				c.peer.avail = 0
				c.avail += m
				c.push(host.EvReadable)
			}
		case op <= 2 && !c.peerClosed: // request bytes arrive
			// Whole requests for HTTPServer: with part of one buffered and
			// nothing more to read it requeues the connection without
			// charging the core, and its service loop never ends.
			if w.whole {
				c.avail += refReq * (1 + w.rng.Intn(2))
			} else {
				c.avail += 1 + w.rng.Intn(2*refReq)
			}
			c.push(host.EvReadable)
		case op == 3 && !w.client && !c.peerClosed:
			c.peerClosed = true
			c.push(host.EvHangup)
		case op == 4 && (!w.client || c.peer.avail > 0 && len(c.th.conns) < refFlows):
			// Close; a client closes a flow awaiting its echo (no queue
			// holds it) while its thread still dials, so the handle is
			// redialed.
			c.hangup()
			w.live = append(w.live[:at], w.live[at+1:]...)
		case op == 5:
			c.sendSpace = w.rng.Intn(2) * w.rng.Intn(4*refResp)
			c.push(host.EvWritable)
		case op == 6:
			th.core.RunQueued(cpu.CatApp, int64(w.rng.Intn(3_000)))
		}
	}
}

// TestAppsMatchRefs runs each handle-indexed app beside its map-keyed
// original (the ref* types below, kept verbatim as the oracle) in two
// worlds driven by one random script: connections are accepted or
// dialed, fed, half-closed and closed — a close frees the handle, so
// accepts and redials recycle it while the closed connection may still
// sit in a pending queue — and send space and core load vary. Every
// Tick must make the same socket calls in the same order, NextWork must
// agree, and so must the counters.
func TestAppsMatchRefs(t *testing.T) {
	costs := cpu.DefaultCosts()
	type mkFunc = func(*sim.Kernel, []host.Thread) (sim.Sleeper, func() int64)
	cases := []struct {
		name      string
		client    bool
		got, want mkFunc
	}{
		{"http", false, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := NewHTTPServer(ths, 80, refReq, refResp, costs)
			return s, s.Requests.Total
		}, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := newRefHTTPServer(ths, 80, refReq, refResp, costs)
			return s, s.Requests.Total
		}},
		{"rpc", false, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := NewRPCServer(ths, 80, refReq, refResp)
			return s, s.Served.Total
		}, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := newRefRPCServer(ths, 80, refReq, refResp)
			return s, s.Served.Total
		}},
		{"sink", false, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := NewSink(ths, 80)
			return s, s.Delivered.Total
		}, func(_ *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			s := newRefSink(ths, 80)
			return s, s.Delivered.Total
		}},
		{"echo", true, func(k *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			c := NewEchoClient(k, ths, 0, 80, refReq, refFlows)
			return c, func() int64 { return c.Requests.Total()<<20 | int64(c.Latency.Count()) }
		}, func(k *sim.Kernel, ths []host.Thread) (sim.Sleeper, func() int64) {
			c := newRefEchoClient(k, ths, 0, 80, refReq, refFlows)
			return c, func() int64 { return c.Requests.Total()<<20 | int64(c.Latency.Count()) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				whole := tc.name == "http"
				got, want := newRefWorld(seed, tc.client, whole, tc.got), newRefWorld(seed, tc.client, whole, tc.want)
				for step := 0; step < 4_000; step++ {
					got.calls, want.calls = got.calls[:0], want.calls[:0]
					for _, w := range []*refWorld{got, want} {
						w.perturb()
						w.app.Tick(w.k.Now())
						if w.client {
							w.track()
						}
					}
					if !reflect.DeepEqual(got.calls, want.calls) {
						t.Fatalf("seed %d step %d: calls\n%v\nwant\n%v", seed, step, got.calls, want.calls)
					}
					if g, w := got.app.NextWork(got.k.Now()), want.app.NextWork(want.k.Now()); g != w {
						t.Fatalf("seed %d step %d: NextWork %d, want %d", seed, step, g, w)
					}
					d := int64(1 + got.rng.Intn(300))
					want.rng.Intn(300)
					got.k.Run(d)
					want.k.Run(d)
				}
				if g, w := got.count(), want.count(); g != w || g == 0 {
					t.Fatalf("seed %d: counter %d, want %d (nonzero)", seed, g, w)
				}
				if got.reuses == 0 || tc.name == "http" && got.stale == 0 {
					t.Fatalf("seed %d: exercise too weak: %d handles recycled, %d over a queued predecessor", seed, got.reuses, got.stale)
				}
			}
		})
	}
}

// The apps as they were before handles: per-connection state in maps
// keyed by the connection, verbatim but for the ref prefix.

// refHTTPServer is the Nginx stand-in of §5.2: per request it parses the
// HTTP header (app work), fetches the HTML from the filesystem
// (vfs_read — kernel bucket, the residual kernel time of Fig 11),
// renders the response header (app work) and sends a fixed-size
// response (256 B in the paper: header + HTML payload).
type refHTTPServer struct {
	threads  []host.Thread
	reqSize  int
	respSize int
	costs    cpu.Costs

	ready   map[host.Conn]int // buffered request bytes per connection
	queued  map[host.Conn]bool
	pending []*sim.Queue[host.Conn] // per-thread round-robin service queues

	// Requests counts responses sent (Fig 10's metric, server side).
	Requests sim.Counter
}

// newRefHTTPServer listens on port with every thread.
func newRefHTTPServer(threads []host.Thread, port uint16, reqSize, respSize int, costs cpu.Costs) *refHTTPServer {
	s := &refHTTPServer{
		threads:  threads,
		reqSize:  reqSize,
		respSize: respSize,
		costs:    costs,
		ready:    make(map[host.Conn]int),
		queued:   make(map[host.Conn]bool),
	}
	for _, th := range threads {
		th.Listen(port)
		s.pending = append(s.pending, sim.NewQueue[host.Conn](0))
	}
	return s
}

func (s *refHTTPServer) enqueue(i int, c host.Conn) {
	if s.queued[c] {
		return
	}
	s.queued[c] = true
	s.pending[i].Push(c)
}

// Tick implements sim.Ticker: each thread serves as many buffered
// requests as its core allows this cycle.
func (s *refHTTPServer) Tick(int64) {
	for i, th := range s.threads {
		pend := s.pending[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				switch ev.Kind {
				case host.EvReadable:
					s.enqueue(i, ev.Conn)
				case host.EvHangup:
					delete(s.ready, ev.Conn)
					delete(s.queued, ev.Conn)
				}
			}
		}
		// Round-robin service: one request per connection per turn, so
		// no connection starves behind a busy one (epoll fairness).
		core := th.Core()
		for core.Free() {
			c, ok := pend.Pop()
			if !ok {
				break
			}
			if !s.queued[c] {
				continue // hung up while queued
			}
			s.queued[c] = false
			served := s.serveOne(th, c)
			if c.Available()+s.ready[c] >= s.reqSize || (!served && s.ready[c] > 0) {
				s.enqueue(i, c)
			} else if s.ready[c] == 0 && c.Available() == 0 {
				delete(s.ready, c)
			}
		}
	}
}

// NextWork implements sim.Sleeper: queued connections wait for the
// thread's core; everything else arrives as readiness events.
func (s *refHTTPServer) NextWork(now int64) int64 {
	next := sim.Dormant
	for i, th := range s.threads {
		if th.EventsPending() {
			return now + 1
		}
		if s.pending[i].Len() > 0 {
			var stop bool
			if next, stop = refCoreWake(next, th.Core(), now); stop {
				return now + 1
			}
		}
	}
	return next
}

// serveOne handles one complete request if present: socket read, HTTP
// parse, file fetch, response render, socket write — each charged to its
// CPU category.
func (s *refHTTPServer) serveOne(th host.Thread, c host.Conn) bool {
	core := th.Core()
	if s.ready[c] < s.reqSize {
		got := c.RecvQueued(c.Available())
		if got == 0 {
			return false
		}
		s.ready[c] += got
	}
	if s.ready[c] < s.reqSize {
		return false
	}
	s.ready[c] -= s.reqSize
	core.RunQueued(cpu.CatApp, s.costs.AppParseRequest)
	core.RunQueued(cpu.CatKernel, s.costs.VfsRead)
	core.RunQueued(cpu.CatApp, s.costs.AppBuildResponse)
	if c.SendQueued(s.respSize, nil) == 0 {
		// Response buffer full: requeue the request for a later turn.
		s.ready[c] += s.reqSize
		return false
	}
	s.Requests.Inc()
	return true
}

// refRPCServer answers fixed-size requests with fixed-size responses (the
// asymmetric cousin of EchoServer): every reqSize bytes received on a
// connection trigger respSize bytes back. Responses that do not fit the
// send buffer are carried over and retried, so a congested client
// cannot wedge the server.
type refRPCServer struct {
	threads  []host.Thread
	reqSize  int
	respSize int

	pend []*refConnSet       // connections owing response bytes, per thread
	owed []map[host.Conn]int // response bytes not yet buffered

	// Served counts fully answered requests.
	Served sim.Counter
}

// newRefRPCServer listens on the port with every thread.
func newRefRPCServer(threads []host.Thread, port uint16, reqSize, respSize int) *refRPCServer {
	s := &refRPCServer{threads: threads, reqSize: reqSize, respSize: respSize}
	for _, th := range threads {
		th.Listen(port)
		s.pend = append(s.pend, newRefConnSet())
		s.owed = append(s.owed, make(map[host.Conn]int))
	}
	return s
}

// Tick implements sim.Ticker. Pending responses drain in refConnSet order
// (insertion order), never map order — determinism (see refConnSet).
func (s *refRPCServer) Tick(int64) {
	for i, th := range s.threads {
		pend, owed := s.pend[i], s.owed[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				switch ev.Kind {
				case host.EvReadable:
					for ev.Conn.Available() >= s.reqSize {
						if ev.Conn.RecvQueued(s.reqSize) == 0 {
							break
						}
						owed[ev.Conn] += s.respSize
						pend.Add(ev.Conn)
						s.Served.Inc()
					}
				case host.EvHangup:
					pend.Remove(ev.Conn)
					delete(owed, ev.Conn)
				}
			}
		}
		if pend.Len() == 0 {
			continue
		}
		pend.Each(func(cn host.Conn) {
			if cn.SendSpace() == 0 {
				return // full buffer: retrying would only burn CPU cost
			}
			rem := owed[cn]
			n := cn.SendQueued(rem, nil)
			if n >= rem {
				pend.Remove(cn)
				delete(owed, cn)
			} else {
				owed[cn] = rem - n
			}
		})
	}
}

// NextWork implements sim.Sleeper: event-driven except while a pending
// response could make progress into freed send-buffer space (a full
// buffer only ever frees via an EvWritable event, which pins stepping
// through EventsPending).
func (s *refRPCServer) NextWork(now int64) int64 {
	for i, th := range s.threads {
		if th.EventsPending() {
			return now + 1
		}
		for _, cn := range s.pend[i].list {
			if cn.SendSpace() > 0 {
				return now + 1
			}
		}
	}
	return sim.Dormant
}

// refSink is the receive side of the transfer workloads: it accepts
// connections and consumes everything that arrives, counting goodput.
// Connections with data left over (core busy, more data than one recv)
// stay on a pending list and are retried every cycle.
type refSink struct {
	threads []host.Thread
	pending []*refConnSet // per thread

	Delivered sim.Counter // payload bytes consumed
}

// newRefSink listens on the port with every thread (SO_REUSEPORT).
func newRefSink(threads []host.Thread, port uint16) *refSink {
	s := &refSink{threads: threads}
	for _, th := range threads {
		th.Listen(port)
		s.pending = append(s.pending, newRefConnSet())
	}
	return s
}

// Tick implements sim.Ticker: drain readable connections.
func (s *refSink) Tick(int64) {
	for i, th := range s.threads {
		pend := s.pending[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				switch ev.Kind {
				case host.EvReadable:
					pend.Add(ev.Conn)
				case host.EvHangup:
					pend.Remove(ev.Conn)
				}
			}
		}
		if pend.Len() == 0 {
			continue
		}
		pend.Each(func(c host.Conn) {
			for {
				n := c.TryRecv(1 << 20)
				if n == 0 {
					break
				}
				s.Delivered.Add(int64(n))
			}
			if c.Available() == 0 {
				pend.Remove(c)
			}
		})
	}
}

// NextWork implements sim.Sleeper. Pending connections always hold
// unconsumed bytes between ticks (a fully drained connection is removed
// the same cycle), so the only wait is for the thread's core.
func (s *refSink) NextWork(now int64) int64 {
	next := sim.Dormant
	for i, th := range s.threads {
		if th.EventsPending() {
			return now + 1
		}
		if s.pending[i].Len() > 0 {
			var stop bool
			if next, stop = refCoreWake(next, th.Core(), now); stop {
				return now + 1
			}
		}
	}
	return next
}

// refEchoClient runs the ping-pong side: every flow sends one fixed-size
// message and waits for the echo before sending the next — the
// worst-case TCB locality pattern of Fig 13 ("each flow has to wait for
// a response to send the next message").
//
// The client is event-driven: per cycle it only touches flows whose
// state changed, so cost scales with activity, not with the number of
// open connections (which reaches 65,536 in the sweep).
type refEchoClient struct {
	threads []host.Thread
	d       *dialer
	byConn  []map[host.Conn]*refEchoFlow
	ready   []*sim.Queue[*refEchoFlow] // flows needing an action, per thread
	msgSize int

	// Requests counts completed round trips (the rps metric of Fig 13).
	Requests sim.Counter
	// Latency records round-trip times in nanoseconds.
	Latency sim.Histogram

	// Telemetry (nil when disabled; see telemetry.go).
	rttHist *telemetry.Histogram
	trc     *telemetry.Trace
	tid     int32

	k *sim.Kernel
}

type refEchoFlow struct {
	conn     host.Conn
	awaiting bool
	queued   bool
	sentAt   int64
}

// newRefEchoClient opens flowsPerThread flows per thread (paced over the
// first simulated cycles).
func newRefEchoClient(k *sim.Kernel, threads []host.Thread, remoteIdx int, port uint16, msgSize, flowsPerThread int) *refEchoClient {
	c := &refEchoClient{
		k:       k,
		threads: threads,
		msgSize: msgSize,
		byConn:  make([]map[host.Conn]*refEchoFlow, len(threads)),
		ready:   make([]*sim.Queue[*refEchoFlow], len(threads)),
	}
	for i := range threads {
		c.byConn[i] = make(map[host.Conn]*refEchoFlow, flowsPerThread)
		c.ready[i] = sim.NewQueue[*refEchoFlow](0)
	}
	c.d = newDialer(threads, []int{remoteIdx}, port, flowsPerThread, func(i int, conn host.Conn) {
		c.byConn[i][conn] = &refEchoFlow{conn: conn}
	})
	return c
}

// Ready reports whether every flow finished its handshake.
func (c *refEchoClient) Ready() bool { return c.d.allEstablished() }

// Established counts handshaken flows (ramp diagnostics).
func (c *refEchoClient) Established() int { return c.d.established() }

func (c *refEchoClient) enqueue(i int, f *refEchoFlow) {
	if f == nil || f.queued {
		return
	}
	f.queued = true
	c.ready[i].Push(f)
}

// Tick implements sim.Ticker.
func (c *refEchoClient) Tick(int64) {
	c.d.tick()
	now := c.k.NowNS()
	for i, th := range c.threads {
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				if ev.Kind == host.EvConnected || ev.Kind == host.EvReadable {
					c.enqueue(i, c.byConn[i][ev.Conn])
				}
			}
		}
		q := c.ready[i]
		for n := q.Len(); n > 0; n-- {
			f, _ := q.Peek()
			if f.awaiting {
				if f.conn.Available() < c.msgSize {
					q.Pop()
					f.queued = false // spurious wakeup; next event re-arms
					continue
				}
				if f.conn.TryRecv(c.msgSize) == 0 {
					break // core busy: retry next cycle, keep order
				}
				f.awaiting = false
				c.Requests.Inc()
				c.Latency.Observe(now - f.sentAt)
				if c.rttHist != nil || c.trc != nil {
					c.rttHist.Observe(now - f.sentAt)
					c.trc.Span("app", "rtt", c.tid, f.sentAt, now, int64(c.msgSize))
				}
				// Fall through to send the next request immediately.
			}
			if f.conn.TrySend(c.msgSize, nil) == 0 {
				break // buffer or core busy: keep queued
			}
			f.awaiting = true
			f.sentAt = now
			q.Pop()
			f.queued = false
		}
	}
}

// NextWork implements sim.Sleeper. With every flow in flight (awaiting
// its echo) and no events pending, the client is dormant for a full
// round trip — the dominant state of Fig 13's latency-bound sweeps and
// the big cycle-skipping win.
func (c *refEchoClient) NextWork(now int64) int64 {
	if !c.d.complete() {
		return now + 1
	}
	for i, th := range c.threads {
		if th.EventsPending() || c.ready[i].Len() > 0 {
			return now + 1
		}
	}
	return sim.Dormant
}

// refConnSet is an insertion-ordered set of connections. Apps track
// connections with pending work in one; plain map iteration would make
// runs non-deterministic.
type refConnSet struct {
	list []host.Conn
	idx  map[host.Conn]int
	snap []host.Conn // Each's reusable snapshot buffer
}

func newRefConnSet() *refConnSet {
	return &refConnSet{idx: make(map[host.Conn]int)}
}

func (s *refConnSet) Add(c host.Conn) {
	if _, ok := s.idx[c]; ok {
		return
	}
	s.idx[c] = len(s.list)
	s.list = append(s.list, c)
}

func (s *refConnSet) Remove(c host.Conn) {
	i, ok := s.idx[c]
	if !ok {
		return
	}
	last := len(s.list) - 1
	s.list[i] = s.list[last]
	s.idx[s.list[i]] = i
	s.list = s.list[:last]
	delete(s.idx, c)
}

func (s *refConnSet) Len() int { return len(s.list) }

// Each visits every member in a stable order; the callback may Remove
// members (including the current one) or Add new ones (visited on the
// next Each). The snapshot buffer is reused across calls — Each runs
// every app tick, and a fresh copy per tick would dominate app-side
// allocation. Each does not nest (apps drive it from a single thread
// loop).
func (s *refConnSet) Each(fn func(c host.Conn)) {
	snapshot := append(s.snap[:0], s.list...)
	s.snap = snapshot
	for _, c := range snapshot {
		if _, ok := s.idx[c]; ok {
			fn(c)
		}
	}
}

// refCoreWake folds a core-gated wake into next: the thread has work right
// now but must wait for its core to free up. It returns the updated
// minimum and whether the caller can stop scanning because the very
// next cycle is already reached.
func refCoreWake(next int64, core *cpu.Core, now int64) (int64, bool) {
	w := core.NextFree(now)
	if w <= now+1 {
		return now + 1, true
	}
	if w < next {
		next = w
	}
	return next, false
}
