package host

import (
	"f4t/internal/cpu"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/stack"
	"f4t/internal/wire"
)

// LinuxMachine is the baseline comparator (§2.2): the software TCP stack
// executing on the host cores. Every syscall, packet and byte charges
// CPU cycles from the calibrated table; RX packets distribute over cores
// by flow hash (RSS) and wait for their core like softirq work.
type LinuxMachine struct {
	wake  sim.Waker
	ep    *stack.Endpoint
	pool  *cpu.Pool
	costs cpu.Costs

	threads []Thread
	last    []sock.Conn                // per thread: last socket touched (bulk vs cold calls)
	rxq     []*sim.Queue[*wire.Packet] // per-core NIC queues (RSS)
	gro     []groTable                 // per-queue GRO flow tables
	rng     *sim.Rand                  // kernel-path timing jitter (Fig 12 tail)

	RxDroppedFull int64
}

// NewLinuxMachine builds a host with n cores/threads over the software
// stack. remotes maps Dial's remoteIdx to peer addresses.
func NewLinuxMachine(k *sim.Kernel, opt stack.Options, n int, costs cpu.Costs, remotes []wire.Addr, tx func(*wire.Packet)) *LinuxMachine {
	m := &LinuxMachine{
		ep:    stack.New(k, opt, tx),
		pool:  cpu.NewPool(k, n),
		costs: costs,
		last:  make([]sock.Conn, n),
		rxq:   make([]*sim.Queue[*wire.Packet], n),
		rng:   sim.NewRand(opt.Seed + 77),
	}
	m.gro = make([]groTable, n)
	for i, h := range stack.NewHosts(m.ep, n) {
		core := m.pool.Cores[i]
		// The kernel's accept work runs when the handshake completes, on
		// the core the flow hashed to, however late the app polls.
		h.OnAccept = func() { core.RunQueued(cpu.CatTCP, costs.TCPConnSetup) }
		m.threads = append(m.threads, newThread(i, core, h, &h.Events, m, remotes))
		m.rxq[i] = sim.NewQueue[*wire.Packet](4096)
	}
	return m
}

// bill implements costModel. A send or recv is a syscall through the
// kernel stack: the shell bills the kernel bucket, the TCP work the TCP
// bucket (the split of Figs 1a/11), both colder when the thread last
// touched a different socket. A Poll that returns events pays the
// epoll_wait + wakeup path.
func (m *LinuxMachine) bill(t *thread, op call, s sock.Conn, n int) {
	switch op {
	case callDial:
		t.core.RunQueued(cpu.CatTCP, m.costs.TCPConnSetup)
	case callPoll:
		t.core.RunQueued(cpu.CatKernel, m.jitter(m.costs.EpollWait))
	case callClose:
		t.core.RunQueued(cpu.CatTCP, m.costs.Syscall)
	case callSend, callRecv:
		cold := m.last[t.idx] != s
		m.last[t.idx] = s
		// The shell carries half the cold-flow cache penalty; the other
		// half lands inside the TCP stack traversal.
		shell := m.costs.Syscall
		if cold {
			shell += m.costs.FlowSwitch / 2
		}
		t.core.RunQueued(cpu.CatKernel, m.jitter(shell))
		tcp := m.costs.LinuxRecvTCPCost(n, cold)
		if op == callSend {
			tcp = m.costs.LinuxSendTCPCost(n, !cold, cold)
		}
		t.core.RunQueued(cpu.CatTCP, m.jitter(tcp))
	}
}

// jitter applies the Linux path's timing variance: ±JitterPct plus rare
// preemption/softirq spikes — the source of the tail in Fig 12.
func (m *LinuxMachine) jitter(cost int64) int64 {
	j := m.costs.JitterPct
	if j > 0 {
		span := 2 * j
		cost = cost * (100 - j + m.rng.Int63n(span+1)) / 100
	}
	if m.costs.SpikeProb > 0 && m.rng.Bool(m.costs.SpikeProb) {
		cost += m.costs.SpikeCycles
	}
	return cost
}

// linuxConn is the app-facing connection: the kernel socket's mirror
// reads pass through free, everything else goes through the gate.
type linuxConn struct {
	*stack.Conn
	gate
}

// Close implements Conn.
func (c *linuxConn) Close() { c.gate.close() }

func (m *LinuxMachine) wrap(t *thread, s sock.Conn) Conn {
	return &linuxConn{s.(*stack.Conn), gate{s, t}}
}

// Endpoint exposes the underlying stack (tests).
func (m *LinuxMachine) Endpoint() *stack.Endpoint { return m.ep }

// Pool implements Machine.
func (m *LinuxMachine) Pool() *cpu.Pool { return m.pool }

// Threads implements Machine.
func (m *LinuxMachine) Threads() []Thread { return append([]Thread(nil), m.threads...) }

// DeliverPacket is the NIC RX entry (attach as the link sink): packets
// hash to a core's queue and wait for CPU time.
func (m *LinuxMachine) DeliverPacket(pkt *wire.Packet) {
	idx := 0
	if pkt.Kind == wire.KindTCP {
		idx = int(pkt.Tuple().Hash() % uint64(len(m.rxq)))
	}
	if !m.rxq[idx].Push(pkt) {
		m.RxDroppedFull++
	}
	m.wake.Wake() // packet arrival revives a quiescent machine
}

// SetWaker implements sim.Wakeable: packet arrivals and stack timers
// armed by socket calls wake the machine.
func (m *LinuxMachine) SetWaker(w sim.Waker) {
	m.wake = w
	m.ep.SetWaker(w)
}

// Tick advances the machine: each free core drains its RX queue
// (charging softirq cost per packet) and timers fire.
func (m *LinuxMachine) Tick(cycle int64) {
	for i, q := range m.rxq {
		core := m.pool.Cores[i]
		for core.Free() {
			pkt, ok := q.Pop()
			if !ok {
				break
			}
			cost := m.costs.TCPRxPacket
			if pkt.Kind == wire.KindTCP {
				// GRO: packets of recently seen flows merge in the
				// driver and share the stack traversal [Corbet 2009].
				if m.gro[i].hit(pkt.Tuple()) {
					cost = m.costs.TCPRxPacketGRO
				}
				if pkt.PayloadLen > 0 {
					cost += int64((pkt.PayloadLen+63)/64) * m.costs.SkbPerByte
				}
			}
			core.Run(cpu.CatTCP, m.jitter(cost))
			m.ep.HandlePacket(pkt)
		}
	}
	m.ep.ExpireTimers()
}

// NextWork implements sim.Sleeper: queued RX packets wait for their
// core; stack timers fire at their deadline cycle. Packets in flight on
// the link arrive via kernel timers (DeliverPacket then wakes the
// machine), and socket calls run synchronously on app ticks, so neither
// needs an entry here.
func (m *LinuxMachine) NextWork(now int64) int64 {
	next := sim.Dormant
	for i, q := range m.rxq {
		if q.Len() == 0 {
			continue
		}
		w := m.pool.Cores[i].NextFree(now)
		if w <= now+1 {
			return now + 1
		}
		if w < next {
			next = w
		}
	}
	if c := m.ep.NextTimerCycle(now); c < next {
		next = c
	}
	return next
}

// groTable is a small per-queue LRU of recently merged flows, matching
// the GRO flow lists NAPI keeps per softirq batch.
type groTable struct {
	flows [8]wire.FourTuple
	used  [8]bool
	clock int
}

// hit reports whether the tuple is in the table, inserting it (LRU-ish
// round-robin replacement) when absent.
func (g *groTable) hit(t wire.FourTuple) bool {
	for i := range g.flows {
		if g.used[i] && g.flows[i] == t {
			return true
		}
	}
	g.flows[g.clock] = t
	g.used[g.clock] = true
	g.clock = (g.clock + 1) % len(g.flows)
	return false
}
