package apps

import (
	"math/bits"

	"f4t/internal/cpu"
	"f4t/internal/flow"
	"f4t/internal/host"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// HTTPServer is the Nginx stand-in of §5.2: per request it parses the
// HTTP header (app work), fetches the HTML from the filesystem
// (vfs_read — kernel bucket, the residual kernel time of Fig 11),
// renders the response header (app work) and sends a fixed-size
// response (256 B in the paper: header + HTML payload).
type HTTPServer struct {
	threads  []host.Thread
	reqSize  int
	respSize int
	costs    cpu.Costs

	conns   []flow.Table[httpConn]  // per thread, by handle
	pending []*sim.Queue[host.Conn] // per-thread round-robin service queues

	// Requests counts responses sent (Fig 10's metric, server side).
	Requests sim.Counter
}

// NewHTTPServer listens on port with every thread.
func NewHTTPServer(threads []host.Thread, port uint16, reqSize, respSize int, costs cpu.Costs) *HTTPServer {
	s := &HTTPServer{
		threads:  threads,
		reqSize:  reqSize,
		respSize: respSize,
		costs:    costs,
		conns:    make([]flow.Table[httpConn], len(threads)),
	}
	for _, th := range threads {
		th.Listen(port)
		s.pending = append(s.pending, sim.NewQueue[host.Conn](0))
	}
	return s
}

// httpConn is the server's state for the connection on one handle.
type httpConn struct {
	conn   host.Conn // owner of the state below; nil once it hung up
	ready  int       // buffered request bytes
	queued bool      // waiting in the thread's pending queue
}

func (s *HTTPServer) enqueue(i int, st *httpConn) {
	if st.queued {
		return
	}
	st.queued = true
	s.pending[i].Push(st.conn)
}

// Tick implements sim.Ticker: each thread serves as many buffered
// requests as its core allows this cycle.
func (s *HTTPServer) Tick(int64) {
	for i, th := range s.threads {
		pend, conns := s.pending[i], &s.conns[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				st := conns.At(ev.Conn.Handle())
				switch ev.Kind {
				case host.EvReadable:
					if st.conn != ev.Conn {
						*st = httpConn{conn: ev.Conn} // the handle's new holder
					}
					s.enqueue(i, st)
				case host.EvHangup:
					*st = httpConn{}
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
			st := conns.At(c.Handle())
			if st.conn != c || !st.queued {
				continue // hung up while queued
			}
			st.queued = false
			served := s.serveOne(th, st)
			if c.Available()+st.ready >= s.reqSize || (!served && st.ready > 0) {
				s.enqueue(i, st)
			}
		}
	}
}

// NextWork implements sim.Sleeper: queued connections wait for the
// thread's core; everything else arrives as readiness events.
func (s *HTTPServer) NextWork(now int64) int64 {
	return idleUntil(s.threads, now, func(i int) bool { return s.pending[i].Len() > 0 })
}

// serveOne handles one complete request if present: socket read, HTTP
// parse, file fetch, response render, socket write — each charged to its
// CPU category.
func (s *HTTPServer) serveOne(th host.Thread, st *httpConn) bool {
	core, c := th.Core(), st.conn
	if st.ready < s.reqSize {
		got := c.RecvQueued(c.Available())
		if got == 0 {
			return false
		}
		st.ready += got
	}
	if st.ready < s.reqSize {
		return false
	}
	st.ready -= s.reqSize
	core.RunQueued(cpu.CatApp, s.costs.AppParseRequest)
	core.RunQueued(cpu.CatKernel, s.costs.VfsRead)
	core.RunQueued(cpu.CatApp, s.costs.AppBuildResponse)
	if c.SendQueued(s.respSize, nil) == 0 {
		// Response buffer full: requeue the request for a later turn.
		st.ready += s.reqSize
		return false
	}
	s.Requests.Inc()
	return true
}

// Wrk is the HTTP load generator of §5.2: keepalive connections that
// each send a fixed-size request, wait for the full response, record
// the latency, and immediately issue the next request.
//
// It runs on readiness, the way wrk runs on epoll: per thread, a bitset
// over dial positions holds the flows that can act, and Tick and
// NextWork cost what is ready rather than what is open.
type Wrk struct {
	k        *sim.Kernel
	threads  []host.Thread
	d        *dialer
	th       []wrkThread // per thread
	reqSize  int
	respSize int
	costs    cpu.Costs

	// Responses counts completed request/response pairs.
	Responses sim.Counter
	// Latency records request→response times (Fig 12).
	Latency sim.Histogram

	// Telemetry (nil when disabled; see telemetry.go).
	latHist *telemetry.Histogram
}

// wrkThread is one client thread's flows by handle — in dial order, as
// the thread's handles are drawn by the dials — and its ready set: bit j
// of ready is set exactly when flows[j] can act (see mark).
type wrkThread struct {
	flows  []wrkFlow
	ready  []uint64
	nReady int // set bits in ready
}

type wrkFlow struct {
	conn     host.Conn
	awaiting bool
	sentAt   int64
	got      int
}

// mark re-derives flow j's ready bit. A flow can act once established,
// unless it awaits a response with no bytes to read. Its inputs change
// only where the flow's substrate queues a readiness event for it
// (EvConnected, EvReadable) and where Tick reads or sends on it, and
// mark runs at each of those points and at dial.
func (t *wrkThread) mark(j int) {
	f := &t.flows[j]
	can := f.conn.Established() && (!f.awaiting || f.conn.Available() > 0)
	w, bit := j>>6, uint64(1)<<(j&63)
	if can == (t.ready[w]&bit != 0) {
		return
	}
	t.ready[w] ^= bit
	if can {
		t.nReady++
	} else {
		t.nReady--
	}
}

// NewWrk opens flowsPerThread keepalive connections per thread (paced).
func NewWrk(k *sim.Kernel, threads []host.Thread, remoteIdx int, port uint16, reqSize, respSize, flowsPerThread int, costs cpu.Costs) *Wrk {
	w := &Wrk{k: k, threads: threads, reqSize: reqSize, respSize: respSize, costs: costs, th: make([]wrkThread, len(threads))}
	w.d = newDialer(threads, remoteIdx, port, flowsPerThread, func(i int, conn host.Conn) {
		t := &w.th[i]
		j := int(conn.Handle())
		if j == len(t.flows) {
			t.flows = append(t.flows, wrkFlow{})
			if j&63 == 0 {
				t.ready = append(t.ready, 0)
			}
		}
		t.flows[j] = wrkFlow{conn: conn} // a reused handle's dead flow is dropped
		t.mark(j)
	})
	return w
}

// Ready reports whether every connection established.
func (w *Wrk) Ready() bool { return w.d.allEstablished() }

// Tick implements sim.Ticker: per thread, it visits the ready flows in
// dial order. A flow outside the set would fall through the loop body
// untouched, so the visits, the core gating and the break are those of
// a scan over every flow.
func (w *Wrk) Tick(int64) {
	w.d.tick()
	now := w.k.NowNS()
	for i, th := range w.threads {
		t := &w.th[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				if j := int(ev.Conn.Handle()); j < len(t.flows) {
					t.mark(j)
				}
			}
		}
		if t.nReady == 0 {
			continue
		}
		core := th.Core()
	flows:
		for wi, word := range t.ready {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				f := &t.flows[j]
				if !f.conn.Established() {
					continue
				}
				if f.awaiting {
					if f.conn.Available() > 0 && core.Free() {
						f.got += f.conn.TryRecv(w.respSize - f.got)
						if f.got >= w.respSize {
							f.awaiting = false
							f.got = 0
							w.Responses.Inc()
							w.Latency.Observe(now - f.sentAt)
							w.latHist.Observe(now - f.sentAt)
						}
						t.mark(j)
					}
					continue
				}
				if !core.Free() {
					break flows
				}
				core.Run(cpu.CatApp, w.costs.GenRequest)
				if f.conn.SendQueued(w.reqSize, nil) > 0 {
					f.awaiting = true
					f.sentAt = now
				}
				t.mark(j)
			}
		}
	}
}

// NextWork implements sim.Sleeper. Pending events are now+1; otherwise
// a thread with a ready flow is core-gated work (the shared core is the
// gate, so one flow suffices), and a flow awaiting its response needs
// nothing until the network delivers, which wakes the machine and then
// surfaces here as a pending event.
func (w *Wrk) NextWork(now int64) int64 {
	if !w.d.complete() {
		return now + 1
	}
	return idleUntil(w.threads, now, func(i int) bool { return w.th[i].nReady > 0 })
}
