package apps

import "f4t/internal/host"

// dialer opens a target number of connections per thread at a bounded
// pace (a few per thread per cycle) so command queues never overflow —
// the way a real load generator ramps connections up.
type dialer struct {
	threads   []host.Thread
	remoteIdx int
	port      uint16
	want      int // connections per thread
	conns     [][]host.Conn
	estPtr    []int // prefix of conns known established (ramp window)
	onOpen    func(threadIdx int, c host.Conn)
	done      bool // every wanted connection dialed; latched
}

// dialsPerTick bounds connection-establishment pace per thread.
const dialsPerTick = 2

// maxOutstandingDials caps un-established connections per thread so a
// 64K-connection ramp doesn't flood the network with simultaneous
// handshakes and collapse into SYN-retransmission storms — real load
// generators ramp the same way.
const maxOutstandingDials = 96

func newDialer(threads []host.Thread, remoteIdx int, port uint16, perThread int, onOpen func(int, host.Conn)) *dialer {
	d := &dialer{
		threads:   threads,
		remoteIdx: remoteIdx,
		port:      port,
		want:      perThread,
		conns:     make([][]host.Conn, len(threads)),
		estPtr:    make([]int, len(threads)),
		onOpen:    onOpen,
		done:      perThread <= 0 || len(threads) == 0,
	}
	return d
}

// tick opens missing connections; returns true when all are dialed.
// Once they are, it latches and returns at once: a dialed connection
// never leaves conns, so there is nothing left to open.
func (d *dialer) tick() bool {
	if d.done {
		return true
	}
	done := true
	for i, th := range d.threads {
		// Connections establish roughly in dial order; advance the
		// established prefix to measure the outstanding window cheaply.
		for d.estPtr[i] < len(d.conns[i]) && d.conns[i][d.estPtr[i]].Established() {
			d.estPtr[i]++
		}
		for n := 0; n < dialsPerTick && len(d.conns[i]) < d.want; n++ {
			if len(d.conns[i])-d.estPtr[i] >= maxOutstandingDials {
				break // ramp window full: wait for handshakes to land
			}
			c := th.Dial(d.remoteIdx, d.port)
			if c == nil {
				break // queue full: retry next cycle
			}
			d.conns[i] = append(d.conns[i], c)
			if d.onOpen != nil {
				d.onOpen(i, c)
			}
		}
		if len(d.conns[i]) < d.want {
			done = false
		}
	}
	d.done = done
	return done
}

// complete reports whether every wanted connection has been dialed
// (established or not). Until then tick actively opens connections
// every cycle, so the owning app must report itself busy.
func (d *dialer) complete() bool { return d.done }

// allEstablished reports whether every wanted connection exists and
// finished its handshake.
func (d *dialer) allEstablished() bool {
	for i := range d.threads {
		if len(d.conns[i]) < d.want {
			return false
		}
		for _, c := range d.conns[i] {
			if !c.Established() {
				return false
			}
		}
	}
	return true
}

// established counts handshaken connections.
func (d *dialer) established() int {
	n := 0
	for i := range d.conns {
		for _, c := range d.conns[i] {
			if c.Established() {
				n++
			}
		}
	}
	return n
}
