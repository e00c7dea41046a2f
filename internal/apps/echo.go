package apps

import (
	"f4t/internal/flow"
	"f4t/internal/host"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// EchoServer bounces every received message back (the "echoing
// benchmark" server of §5.3).
type EchoServer struct {
	threads []host.Thread
	msgSize int
}

// NewEchoServer listens on the port with every thread.
func NewEchoServer(threads []host.Thread, port uint16, msgSize int) *EchoServer {
	s := &EchoServer{threads: threads, msgSize: msgSize}
	for _, th := range threads {
		th.Listen(port)
	}
	return s
}

// Tick implements sim.Ticker.
func (s *EchoServer) Tick(int64) {
	for _, th := range s.threads {
		if !th.EventsPending() {
			continue
		}
		for _, ev := range th.Poll() {
			if ev.Kind != host.EvReadable {
				continue
			}
			for ev.Conn.Available() >= s.msgSize {
				if ev.Conn.RecvQueued(s.msgSize) == 0 {
					break
				}
				ev.Conn.SendQueued(s.msgSize, nil)
			}
		}
	}
}

// NextWork implements sim.Sleeper: the server is purely event-driven
// (RecvQueued/SendQueued never gate on the core up front), so it only
// acts on readiness events.
func (s *EchoServer) NextWork(now int64) int64 {
	return idleUntil(s.threads, now, func(int) bool { return false })
}

// EchoClient runs the ping-pong side: every flow sends one fixed-size
// message and waits for the echo before sending the next — the
// worst-case TCB locality pattern of Fig 13 ("each flow has to wait for
// a response to send the next message").
//
// The client is event-driven: per cycle it only touches flows whose
// state changed, so cost scales with activity, not with the number of
// open connections (which reaches 65,536 in the sweep).
type EchoClient struct {
	threads []host.Thread
	d       *dialer
	flows   []flow.Table[*echoFlow] // per thread, by handle
	ready   []*sim.Queue[*echoFlow] // flows needing an action, per thread
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

type echoFlow struct {
	conn     host.Conn
	awaiting bool
	queued   bool
	sentAt   int64
}

// NewEchoClient opens flowsPerThread flows per thread (paced over the
// first simulated cycles).
func NewEchoClient(k *sim.Kernel, threads []host.Thread, remoteIdx int, port uint16, msgSize, flowsPerThread int) *EchoClient {
	c := &EchoClient{
		k:       k,
		threads: threads,
		msgSize: msgSize,
		flows:   make([]flow.Table[*echoFlow], len(threads)),
		ready:   make([]*sim.Queue[*echoFlow], len(threads)),
	}
	for i := range threads {
		c.ready[i] = sim.NewQueue[*echoFlow](0)
	}
	c.d = newDialer(threads, remoteIdx, port, flowsPerThread, func(i int, conn host.Conn) {
		c.flows[i].Set(conn.Handle(), &echoFlow{conn: conn})
	})
	return c
}

// Ready reports whether every flow finished its handshake.
func (c *EchoClient) Ready() bool { return c.d.allEstablished() }

// Established counts handshaken flows (ramp diagnostics).
func (c *EchoClient) Established() int { return c.d.established() }

func (c *EchoClient) enqueue(i int, conn host.Conn) {
	f := c.flows[i].Get(conn.Handle())
	if f == nil || f.conn != conn || f.queued {
		return
	}
	f.queued = true
	c.ready[i].Push(f)
}

// Tick implements sim.Ticker.
func (c *EchoClient) Tick(int64) {
	c.d.tick()
	now := c.k.NowNS()
	for i, th := range c.threads {
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				if ev.Kind == host.EvConnected || ev.Kind == host.EvReadable {
					c.enqueue(i, ev.Conn)
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
func (c *EchoClient) NextWork(now int64) int64 {
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
