package host

import (
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/softstack"
	"f4t/internal/wire"
)

// F4TMachine is a host whose threads reach the network through the F4T
// library: socket calls are function calls that write 16 B commands
// (§4.6), and the only recurring CPU work is posting commands and
// draining completions.
type F4TMachine struct {
	eng   *engine.Engine
	pool  *cpu.Pool
	costs cpu.Costs

	threads []Thread
	libs    []*softstack.Lib // libs[i] is behind threads[i], on pool.Cores[i]
}

// NewF4TMachine builds a host with one thread per engine channel. The
// engine must have been configured with Channels == cores.
func NewF4TMachine(k *sim.Kernel, eng *engine.Engine, cores int, costs cpu.Costs, remotes []wire.Addr) *F4TMachine {
	m := &F4TMachine{
		eng:   eng,
		pool:  cpu.NewPool(k, cores),
		costs: costs,
	}
	for i := 0; i < cores; i++ {
		lib := softstack.NewLib(k, eng, i)
		m.libs = append(m.libs, lib)
		m.threads = append(m.threads, newThread(i, m.pool.Cores[i], lib, &lib.Events, m, remotes))
	}
	return m
}

// bill implements costModel: every socket call is one 16 B command and
// one amortized doorbell (§4.6); taking already-drained events is free.
func (m *F4TMachine) bill(t *thread, op call, _ sock.Conn, _ int) {
	if op != callPoll {
		t.core.RunQueued(cpu.CatF4TLib, m.costs.F4TSendCost())
	}
}

// f4tConn is the app-facing connection: the library socket's mirror
// reads pass through free, everything else goes through the gate.
type f4tConn struct {
	*softstack.Socket
	gate
}

// Close implements Conn.
func (c *f4tConn) Close() { c.gate.close() }

func (m *F4TMachine) wrap(t *thread, s sock.Conn) Conn {
	return &f4tConn{s.(*softstack.Socket), gate{s, t}}
}

// Engine exposes the device (tests).
func (m *F4TMachine) Engine() *engine.Engine { return m.eng }

// Pool implements Machine.
func (m *F4TMachine) Pool() *cpu.Pool { return m.pool }

// Threads implements Machine.
func (m *F4TMachine) Threads() []Thread { return append([]Thread(nil), m.threads...) }

// Tick drains each thread's completion queue, charging per-completion
// library cost on its core (polling the software doorbell, §4.6).
func (m *F4TMachine) Tick(cycle int64) {
	for i, lib := range m.libs {
		core := m.pool.Cores[i]
		for lib.PendingCompletions() > 0 && core.Free() {
			core.Run(cpu.CatF4TLib, m.costs.F4TCompletion)
			lib.PollOne()
		}
	}
}

// NextWork implements sim.Sleeper: the machine only acts when a thread
// has completions to drain, and then only once its core frees up.
// Completions arrive via PCIe DMA kernel timers, which bound any skip.
func (m *F4TMachine) NextWork(now int64) int64 {
	next := sim.Dormant
	for i, lib := range m.libs {
		if lib.PendingCompletions() == 0 {
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
	return next
}
