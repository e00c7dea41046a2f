package apps

import (
	"f4t/internal/flow"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// FanClient is the RPC fan-out/fan-in workload of the topology rigs:
// each thread holds one connection to every server in a set, and each
// round sends a small request to all of them, then waits for every
// (typically larger) response before starting the next round — the
// partition/aggregate pattern whose synchronized response burst is the
// classic incast microburst at the client's downlink queue.
type FanClient struct {
	threads  []host.Thread
	reqSize  int
	respSize int

	d       *dialer // per thread, connection j goes to remotes[j]
	sendRem [][]int // request bytes still to push, per conn
	recvRem [][]int // response bytes still awaited, per conn
	startNS []int64 // round start, per thread

	// Rounds counts completed fan-in rounds; Latency records each
	// round's duration (request out → last response byte) in ns.
	Rounds  sim.Counter
	Latency sim.Histogram

	k *sim.Kernel
}

// NewFanClient prepares one connection per (thread, remote). Dialing is
// paced by the shared dialer like every other workload.
func NewFanClient(k *sim.Kernel, threads []host.Thread, remotes []int, port uint16, reqSize, respSize int) *FanClient {
	c := &FanClient{
		k: k, threads: threads, reqSize: reqSize, respSize: respSize,
		d:       newDialer(threads, remotes, port, len(remotes), nil),
		sendRem: make([][]int, len(threads)),
		recvRem: make([][]int, len(threads)),
		startNS: make([]int64, len(threads)),
	}
	for i := range threads {
		c.sendRem[i] = make([]int, len(remotes))
		c.recvRem[i] = make([]int, len(remotes))
	}
	return c
}

// Ready reports whether every connection finished its handshake.
func (c *FanClient) Ready() bool { return c.d.allEstablished() }

// startRound arms a fresh fan-out on thread i.
func (c *FanClient) startRound(i int) {
	for j := range c.d.conns[i] {
		c.sendRem[i][j] = c.reqSize
		c.recvRem[i][j] = c.respSize
	}
	c.startNS[i] = c.k.NowNS()
}

// Tick implements sim.Ticker.
func (c *FanClient) Tick(int64) {
	c.d.tick()
	for i, th := range c.threads {
		if th.EventsPending() {
			th.Poll() // consume readiness events; state below is polled directly
		}
		if len(c.d.conns[i]) < c.d.want || !allEstablished(c.d.conns[i]) {
			continue
		}
		if c.roundDone(i) {
			if c.startNS[i] != 0 {
				c.Rounds.Inc()
				c.Latency.Observe(c.k.NowNS() - c.startNS[i])
			}
			c.startRound(i)
		}
		for j, cn := range c.d.conns[i] {
			for c.sendRem[i][j] > 0 {
				n := cn.TrySend(c.sendRem[i][j], nil)
				if n == 0 {
					break // core or buffer busy: events/Next cycle retry
				}
				c.sendRem[i][j] -= n
			}
			for c.recvRem[i][j] > 0 && cn.Available() > 0 {
				n := cn.TryRecv(c.recvRem[i][j])
				if n == 0 {
					break
				}
				c.recvRem[i][j] -= n
			}
		}
		if c.roundDone(i) {
			// Complete the round this same cycle so latency excludes an
			// artificial one-tick tail; the next Tick re-arms.
			c.Rounds.Inc()
			c.Latency.Observe(c.k.NowNS() - c.startNS[i])
			c.startRound(i)
		}
	}
}

// roundDone reports whether thread i's fan-in completed (or never ran).
func (c *FanClient) roundDone(i int) bool {
	for j := range c.d.conns[i] {
		if c.sendRem[i][j] > 0 || c.recvRem[i][j] > 0 {
			return false
		}
	}
	return true
}

// SetWaker implements sim.Wakeable.
func (c *FanClient) SetWaker(w sim.Waker) { wakeOn(c.threads, w) }

// NextWork implements sim.Sleeper. A thread purely awaiting responses
// (requests all accepted, no readable bytes) is dormant until a
// readiness event; anything else — dial ramp, blocked sends, unread
// bytes, a round to re-arm — keeps it scheduled.
func (c *FanClient) NextWork(now int64) int64 {
	if !c.d.complete() {
		return now + 1
	}
	return idleUntil(c.threads, now, func(i int) bool {
		if !allEstablished(c.d.conns[i]) {
			return false // handshake completion arrives as an event
		}
		if c.roundDone(i) {
			return true // a finished round re-arms next Tick
		}
		for j, cn := range c.d.conns[i] {
			if c.sendRem[i][j] > 0 && cn.SendSpace() > 0 || c.recvRem[i][j] > 0 && cn.Available() > 0 {
				return true // core-gated send or recv retry
			}
		}
		return false
	})
}

// RPCServer answers fixed-size requests with fixed-size responses (the
// asymmetric cousin of EchoServer): every reqSize bytes received on a
// connection trigger respSize bytes back. Responses that do not fit the
// send buffer are carried over and retried, so a congested client
// cannot wedge the server.
type RPCServer struct {
	threads  []host.Thread
	reqSize  int
	respSize int

	pend []connSet         // connections owing response bytes, per thread
	owed []flow.Table[int] // response bytes not yet buffered, by handle; 0 outside pend

	// Served counts fully answered requests.
	Served sim.Counter
}

// NewRPCServer listens on the port with every thread.
func NewRPCServer(threads []host.Thread, port uint16, reqSize, respSize int) *RPCServer {
	s := &RPCServer{threads: threads, reqSize: reqSize, respSize: respSize,
		pend: make([]connSet, len(threads)), owed: make([]flow.Table[int], len(threads))}
	for _, th := range threads {
		th.Listen(port)
	}
	return s
}

// Tick implements sim.Ticker. Pending responses drain in connSet order
// (insertion order), never map order — determinism (see connSet).
func (s *RPCServer) Tick(int64) {
	for i, th := range s.threads {
		pend, owed := &s.pend[i], &s.owed[i]
		if th.EventsPending() {
			for _, ev := range th.Poll() {
				switch ev.Kind {
				case host.EvReadable:
					for ev.Conn.Available() >= s.reqSize {
						if ev.Conn.RecvQueued(s.reqSize) == 0 {
							break
						}
						*owed.At(ev.Conn.Handle()) += s.respSize
						pend.Add(ev.Conn)
						s.Served.Inc()
					}
				case host.EvHangup:
					pend.Remove(ev.Conn)
					owed.Clear(ev.Conn.Handle())
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
			rem := owed.At(cn.Handle())
			n := cn.SendQueued(*rem, nil)
			if n >= *rem {
				pend.Remove(cn)
				*rem = 0
			} else {
				*rem -= n
			}
		})
	}
}

// SetWaker implements sim.Wakeable.
func (s *RPCServer) SetWaker(w sim.Waker) { wakeOn(s.threads, w) }

// NextWork implements sim.Sleeper: event-driven except while a pending
// response could make progress into freed send-buffer space (a full
// buffer only ever frees via an EvWritable event, which pins stepping
// through EventsPending).
func (s *RPCServer) NextWork(now int64) int64 {
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
