// Package apps implements the evaluation workloads of §5 against the
// stack-agnostic host interface, so each runs unchanged on the Linux
// software stack and on F4T: a bulk sender (iPerf, §5.1), a round-robin
// requester (§5.1), a 128 B echo (§5.3), an HTTP server standing in for
// Nginx, and a wrk-style HTTP load generator (§5.2).
package apps

import (
	"f4t/internal/host"
	"f4t/internal/sim"
)

// BulkSender is the iPerf workload of Fig 8a/Fig 9: each thread drives
// one flow with back-to-back send requests of a fixed size.
type BulkSender struct {
	threads []host.Thread
	d       *dialer
	reqSize int

	// Requests counts accepted send()s (the Mrps metric of Fig 9b).
	Requests sim.Counter
	// Bytes counts accepted payload bytes.
	Bytes sim.Counter
}

// NewBulkSender prepares one flow per thread toward the peer's port;
// dialing proceeds over the first simulated cycles.
func NewBulkSender(threads []host.Thread, remoteIdx int, port uint16, reqSize int) *BulkSender {
	return &BulkSender{
		threads: threads,
		d:       newDialer(threads, remoteIdx, port, 1, nil),
		reqSize: reqSize,
	}
}

// Ready reports whether every flow finished its handshake.
func (b *BulkSender) Ready() bool { return b.d.allEstablished() }

// Tick implements sim.Ticker: every thread pushes as many requests as
// its core and buffers allow this cycle.
func (b *BulkSender) Tick(int64) {
	b.d.tick()
	for i, th := range b.threads {
		if th.EventsPending() {
			th.Poll() // consume readiness events (free buffer space signals)
		}
		if len(b.d.conns[i]) == 0 {
			continue
		}
		c := b.d.conns[i][0]
		if !c.Established() {
			continue
		}
		for {
			n := c.TrySend(b.reqSize, nil)
			if n == 0 {
				break
			}
			b.Requests.Inc()
			b.Bytes.Add(int64(n))
		}
	}
}

// NextWork implements sim.Sleeper. A sender with an established flow is
// perpetually busy modulo its core — TrySend charges the core even when
// the send buffer is full — so idleness only comes from the dial ramp
// and handshake waits.
func (b *BulkSender) NextWork(now int64) int64 {
	if !b.d.complete() {
		return now + 1
	}
	return idleUntil(b.threads, now, func(i int) bool {
		return len(b.d.conns[i]) > 0 && b.d.conns[i][0].Established()
	})
}

// RoundRobinSender is the low-locality workload of Fig 8b: each thread
// cycles over a distinct set of flows, sending one fixed-size request to
// each in turn ("each CPU core generates send requests in a round-robin
// manner for 16 flows", §5.1).
type RoundRobinSender struct {
	threads []host.Thread
	d       *dialer
	next    []int
	reqSize int

	Requests sim.Counter
	Bytes    sim.Counter
}

// NewRoundRobinSender prepares flowsPerThread flows per thread.
func NewRoundRobinSender(threads []host.Thread, remoteIdx int, port uint16, reqSize, flowsPerThread int) *RoundRobinSender {
	return &RoundRobinSender{
		threads: threads,
		d:       newDialer(threads, remoteIdx, port, flowsPerThread, nil),
		next:    make([]int, len(threads)),
		reqSize: reqSize,
	}
}

// Ready reports whether every flow finished its handshake.
func (r *RoundRobinSender) Ready() bool { return r.d.allEstablished() }

// Tick implements sim.Ticker.
func (r *RoundRobinSender) Tick(int64) {
	r.d.tick()
	for i, th := range r.threads {
		if th.EventsPending() {
			th.Poll()
		}
		cs := r.d.conns[i]
		if len(cs) == 0 {
			continue
		}
		// Strict rotation: a blocked flow stalls the rotation briefly but
		// the next cycle retries — matching the benchmark's round-robin.
		for tries := 0; tries < len(cs); tries++ {
			c := cs[r.next[i]%len(cs)]
			if !c.Established() {
				r.next[i]++
				continue
			}
			n := c.TrySend(r.reqSize, nil)
			if n == 0 {
				break
			}
			r.next[i]++
			r.Requests.Inc()
			r.Bytes.Add(int64(n))
		}
	}
}

// NextWork implements sim.Sleeper: like BulkSender, any established
// flow keeps the thread core-gated busy. Rotation past unestablished
// flows is idempotent (it lands on the first established entry, and no
// flow changes state while the kernel skips), so it is safe to defer.
func (r *RoundRobinSender) NextWork(now int64) int64 {
	if !r.d.complete() {
		return now + 1
	}
	return idleUntil(r.threads, now, func(i int) bool {
		for _, c := range r.d.conns[i] {
			if c.Established() {
				return true // the shared core is the gate; one flow suffices
			}
		}
		return false
	})
}

// Sink is the receive side of the transfer workloads: it accepts
// connections and consumes everything that arrives, counting goodput.
// Connections with data left over (core busy, more data than one recv)
// stay on a pending list and are retried every cycle.
type Sink struct {
	threads []host.Thread
	pending []connSet // per thread

	Delivered sim.Counter // payload bytes consumed
}

// NewSink listens on the port with every thread (SO_REUSEPORT).
func NewSink(threads []host.Thread, port uint16) *Sink {
	s := &Sink{threads: threads, pending: make([]connSet, len(threads))}
	for _, th := range threads {
		th.Listen(port)
	}
	return s
}

// Tick implements sim.Ticker: drain readable connections.
func (s *Sink) Tick(int64) {
	for i, th := range s.threads {
		pend := &s.pending[i]
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
func (s *Sink) NextWork(now int64) int64 {
	return idleUntil(s.threads, now, func(i int) bool { return s.pending[i].Len() > 0 })
}
