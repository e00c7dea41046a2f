// Package netapi is a stdlib-compatible socket facade over the F4T
// simulation: Dial/Listen return real net.Conn / net.Listener
// implementations whose blocking Read/Write/Accept calls are served by
// the deterministic simulation kernel. It bridges two worlds with
// incompatible execution models:
//
//   - Application goroutines (net/http servers, any Go protocol
//     library) block on socket calls at arbitrary real times.
//   - The simulation is single-driver and cycle-deterministic: all
//     socket state may only advance at well-defined simulated cycles,
//     identically across serial, noskip, and sharded fabrics.
//
// The bridge is cooperative. A blocked caller parks its op on a channel
// inside the Stack's inbox; a kernel-side pump component (a sim.Sleeper
// registered on the stack's island) drains the inbox at deterministic
// cycles, executes ops against facade-local mirrors of the socket
// pointers while simulated time is frozen, wakes completed callers, and
// waits — in real time, with simulated time still frozen — for the
// woken goroutines to either submit their next op or go silent (the
// settle loop). Only then does it apply the accumulated sim-visible
// effects (send/recv pointer posts, closes, dials) in one pass sorted
// by connection id, and let simulated time move again.
//
// Determinism model (see DESIGN.md §14 for the full argument):
//
//   - Effect/observe split: ring byte copies are invisible to the
//     simulation (the engine never reads TX bytes beyond the posted REQ
//     pointer, never rewrites RX bytes below the delivered pointer), so
//     ops copy immediately but defer every pointer-advancing command to
//     the end-of-settle effect pass. Batch splits across settle rounds
//     therefore cannot change what the simulation observes.
//   - Deterministic pickup cycles: the pump's NextWork is a function of
//     simulation-side state only (pending completions, effect retries)
//     plus a fixed poll grid — never of the racy inbox — so the cycles
//     at which ops can enter the simulation are identical across runs
//     and fabrics.
//   - Within one settle, ops are executed in (owner id, kind, submit
//     seq) order, and effects are applied in connection-id order.
//
// The guarantee holds for applications whose blocking all flows through
// netapi calls (channel handoffs between goroutines in between are
// fine — the settle loop waits them out). An application that gates
// behaviour on wall-clock time (time.Sleep, real deadlines) ties its
// ops to real time and trades determinism away; deadlines are
// supported but documented as best-effort. A goroutine descheduled for
// longer than the settle grace window slips its op to the next poll
// grid cycle; the window defaults are generous and tests that assert
// bit-identical digests widen them further.
package netapi

import (
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Options tunes a Stack. The zero value gets usable defaults.
type Options struct {
	// LocalIP is the address reported by LocalAddr (the engine's or
	// endpoint's IP).
	LocalIP wire.Addr

	// GridCycles is the fixed poll grid: ops submitted outside any
	// settle window enter the simulation at the next multiple of this
	// many cycles (default 1024 ≈ 4 µs). Smaller grids pick up
	// spontaneous ops sooner but bound cycle skipping tighter.
	GridCycles int64

	// SettleQuantum is the real-time wait slice of the settle loop
	// (default 150 µs).
	SettleQuantum time.Duration

	// SettleQuietRounds is how many consecutive empty quanta end a
	// settle once no woken goroutine is outstanding (default 4).
	SettleQuietRounds int

	// SettleBusyWait caps how long a settle waits for an already-woken
	// goroutine to submit its next op before treating it as gone
	// (default 1.5 ms).
	SettleBusyWait time.Duration
}

// DifferentialOptions widens the settle windows for runs whose digests
// are compared bit for bit (the fabric batteries, the rig goldens): a
// goroutine descheduled by a loaded machine must not slip an op past
// its settle.
func DifferentialOptions(ip wire.Addr) Options {
	return Options{
		LocalIP:           ip,
		SettleQuantum:     200 * time.Microsecond,
		SettleQuietRounds: 5,
		SettleBusyWait:    5 * time.Millisecond,
	}
}

func (o *Options) fill() {
	if o.GridCycles <= 0 {
		o.GridCycles = 1024
	}
	if o.SettleQuantum <= 0 {
		o.SettleQuantum = 150 * time.Microsecond
	}
	if o.SettleQuietRounds <= 0 {
		o.SettleQuietRounds = 4
	}
	if o.SettleBusyWait <= 0 {
		o.SettleBusyWait = 1500 * time.Microsecond
	}
}

// opKind discriminates facade operations. The numeric order is the
// deterministic execution rank within one batch.
type opKind uint8

const (
	opListen opKind = iota
	opDial
	opAccept
	opRead
	opWrite
	opConnClose
	opLnClose
)

// op is one blocking facade call in flight.
type op struct {
	kind opKind
	seq  int64 // submission ticket (total order tie-break)
	done chan struct{}
	err  error

	id    int64 // preassigned owner id (dial, listen)
	raddr wire.Addr
	rport uint16

	c    *Conn
	ln   *Listener
	buf  []byte
	n    int // bytes transferred so far (read result / write progress)
	conn *Conn // result (dial, accept)
}

// owner returns the id the batch sort groups by.
func (o *op) owner() int64 {
	switch o.kind {
	case opListen, opDial:
		return o.id
	case opAccept, opLnClose:
		return o.ln.id
	default:
		return o.c.id
	}
}

// Stack is one host's facade instance: the bridge between application
// goroutines and that host's sock.Host (an engine-backed softstack.Lib
// or a software stack.Host).
type Stack struct {
	k    *sim.Kernel
	host sock.Host
	opt  Options

	nowNS  atomic.Int64
	inboxN atomic.Int32

	// mu guards the fields shared with application goroutines: inbox,
	// credits, seq, nextID, deadlines, and the parked-op queues hanging
	// off conns/listeners. The island-only fields below it (effect
	// flags, retry lists, grid bookkeeping) are touched exclusively by
	// the pump on the island goroutine — or by Settle/Shutdown from the
	// driver while every island is provably idle — so they need no lock
	// and, crucially, NextWork may read them without one.
	mu      sync.Mutex
	signal  chan struct{}
	seq     int64
	nextID  int64
	inbox   []*op
	credits int
	closed  bool

	conns     []*Conn // live conns in ascending id order
	listeners []*Listener

	lns         map[uint16]*Listener // registered ports, for accept routing
	dialRetry   []*op                // the host had no capacity; retried per tick
	orphans     []sock.Conn          // accepted conns with no listener: abort
	effectRetry bool
	nextGridAt  int64
	down        bool // Shutdown called: pump stands down

	wg sync.WaitGroup
}

func newStack(k *sim.Kernel, host sock.Host, opt Options) *Stack {
	opt.fill()
	return &Stack{k: k, host: host, opt: opt, signal: make(chan struct{}, 1), lns: make(map[uint16]*Listener)}
}

// NowNS returns the current simulated time in nanoseconds, readable
// from any goroutine (updated by the pump each tick).
func (st *Stack) NowNS() int64 { return st.nowNS.Load() }

// Go runs fn on a tracked goroutine; Wait joins all of them. Workload
// goroutines should start here so rigs can drain them at teardown.
func (st *Stack) Go(fn func()) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		fn()
	}()
}

// Wait blocks until every Go-started goroutine has returned.
func (st *Stack) Wait() { st.wg.Wait() }

// submit parks the calling goroutine on o until the pump completes it.
func (st *Stack) submit(o *op) error {
	o.done = make(chan struct{})
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return net.ErrClosed
	}
	st.seq++
	o.seq = st.seq
	if st.credits > 0 {
		st.credits--
	}
	st.inbox = append(st.inbox, o)
	st.inboxN.Add(1)
	st.mu.Unlock()
	select {
	case st.signal <- struct{}{}:
	default:
	}
	<-o.done
	return o.err
}

// finish completes a parked op and wakes its goroutine. Caller holds mu.
func (st *Stack) finish(o *op, err error) {
	o.err = err
	st.credits++
	close(o.done)
}

// pumpTick is the per-cycle entry point on the island goroutine.
func (st *Stack) pumpTick(cycle int64) {
	st.nowNS.Store(cycle * sim.CycleNS)
	if st.down {
		return
	}
	pending := st.drain()
	// Settle only at deterministic cycles: substrate activity, pending
	// retries, or the fixed poll grid. The inbox is deliberately NOT
	// consulted here — its fill level is real-time racy, and gating on
	// it would make the settle cycle depend on goroutine scheduling.
	if !pending && !st.effectRetry && len(st.dialRetry) == 0 && cycle < st.nextGridAt {
		return
	}
	st.nextGridAt = (cycle/st.opt.GridCycles + 1) * st.opt.GridCycles
	st.settle()
	// Yield after every settle: on GOMAXPROCS=1 a driver that never
	// blocks can otherwise starve freshly spawned application
	// goroutines of the CPU they need to submit their first op (the
	// settle loop's own waits only cover goroutines it woke itself).
	runtime.Gosched()
}

// nextWork is the pump's sim.Sleeper hint. It must be a function of
// island-side simulation state only — never of the inbox.
func (st *Stack) nextWork(now int64) int64 {
	if st.down {
		return sim.Dormant
	}
	if st.host.Pending() || st.effectRetry || len(st.dialRetry) > 0 {
		return now + 1
	}
	if st.nextGridAt <= now {
		return now + 1
	}
	return st.nextGridAt
}

// Settle runs one settle pass from the driver goroutine. Call it only
// while the fabric is idle (before the first Run, or between Run
// calls — both serial and sharded Run return with every island
// goroutine joined). It exists so setup-time Listen/Dial/Accept ops
// issued by freshly started workload goroutines are picked up at a
// deterministic point before simulated time first advances.
func (st *Stack) Settle() {
	st.nowNS.Store(st.k.NowNS())
	if st.down {
		return
	}
	// Freshly started workload goroutines race the driver to this call;
	// grant them one busy-wait window to submit their first ops before
	// settling (a settle on an empty inbox would return immediately and
	// leave those ops to a racy grid-cycle pickup).
	deadline := time.Now().Add(st.opt.SettleBusyWait)
	for st.inboxN.Load() == 0 && time.Now().Before(deadline) {
		select {
		case <-st.signal:
		case <-time.After(st.opt.SettleQuantum):
		}
	}
	st.drain()
	st.settle()
}

// settle executes ops at frozen simulated time until the application
// goes quiet, then applies the accumulated effects.
func (st *Stack) settle() {
	st.mu.Lock()
	if n := len(st.dialRetry); n > 0 {
		pend := st.dialRetry
		st.dialRetry = nil
		for _, o := range pend {
			st.execDial(o)
		}
	}
	// A settle that executed or completed an op ends only on silence:
	// the goroutines it woke may hand off to others that hold no credit
	// (net/http's read, write and handler goroutines), so an empty inbox
	// at zero credits does not yet mean the application is done. An
	// idle poll — nothing queued, nothing completed — ends at once.
	active := false
	for {
		if len(st.inbox) > 0 {
			active = true
			batch := st.inbox
			st.inbox = nil
			st.inboxN.Store(0)
			sort.Slice(batch, func(i, j int) bool {
				a, b := batch[i], batch[j]
				if ao, bo := a.owner(), b.owner(); ao != bo {
					return ao < bo
				}
				if a.kind != b.kind {
					return a.kind < b.kind
				}
				return a.seq < b.seq
			})
			for _, o := range batch {
				st.exec(o)
			}
		}
		st.sweep()
		active = active || st.credits > 0
		if !active {
			break
		}
		if !st.waitQuiet() {
			// Silence: any outstanding credit belongs to a goroutine
			// that exited or blocked outside netapi; stop waiting on it.
			st.credits = 0
			if len(st.inbox) == 0 {
				break
			}
		}
	}
	st.applyEffects()
	st.mu.Unlock()
}

// waitQuiet drops the lock and waits for new submissions. It returns
// true when ops arrived, false when the application went silent.
func (st *Stack) waitQuiet() bool {
	busyUntil := time.Now().Add(st.opt.SettleBusyWait)
	quietLeft := st.opt.SettleQuietRounds
	for {
		if len(st.inbox) > 0 {
			return true
		}
		hadCredits := st.credits > 0
		st.mu.Unlock()
		select {
		case <-st.signal:
		case <-time.After(st.opt.SettleQuantum):
		}
		st.mu.Lock()
		if len(st.inbox) > 0 {
			return true
		}
		if hadCredits && st.credits > 0 && time.Now().Before(busyUntil) {
			continue
		}
		quietLeft--
		if quietLeft <= 0 {
			return false
		}
	}
}

// exec runs one op at frozen simulated time, completing it or parking
// it on its owner's queue. Caller holds mu.
func (st *Stack) exec(o *op) {
	switch o.kind {
	case opListen:
		st.execListen(o)
	case opDial:
		st.execDial(o)
	case opAccept:
		ln := o.ln
		if ln.closedLn {
			st.finish(o, net.ErrClosed)
			return
		}
		if !st.tryAccept(ln, o) {
			ln.acceptQ = append(ln.acceptQ, o)
		}
	case opRead:
		if len(o.c.readQ) > 0 || !st.tryRead(o) {
			o.c.readQ = append(o.c.readQ, o)
		}
	case opWrite:
		if len(o.c.writeQ) > 0 || !st.tryWrite(o) {
			o.c.writeQ = append(o.c.writeQ, o)
		}
	case opConnClose:
		st.execConnClose(o)
	case opLnClose:
		st.execLnClose(o)
	}
}

func (st *Stack) execListen(o *op) {
	for _, ln := range st.listeners {
		if ln.port == o.rport && !ln.closedLn {
			st.finish(o, errAddrInUse)
			return
		}
	}
	ln := &Listener{st: st, id: o.id, port: o.rport, wantListen: true}
	st.listeners = append(st.listeners, ln)
	o.ln = ln
	st.finish(o, nil)
}

func (st *Stack) execDial(o *op) {
	bc := st.host.Dial(o.raddr, o.rport)
	if bc == nil { // no capacity now (command queue, flow ceiling): retry
		st.dialRetry = append(st.dialRetry, o)
		return
	}
	c := st.newConn(o.id, bc)
	c.dialOp = o
}

func (st *Stack) execConnClose(o *op) {
	c := o.c
	if !c.localClosed {
		c.localClosed = true
		if c.dialOp != nil {
			st.finish(c.dialOp, net.ErrClosed)
			c.dialOp = nil
			c.wantAbort = true
		} else {
			c.wantClose = true
		}
		st.failParked(c, net.ErrClosed)
	}
	st.finish(o, nil)
}

func (st *Stack) execLnClose(o *op) {
	ln := o.ln
	if !ln.closedLn {
		ln.closedLn = true
		for _, a := range ln.acceptQ {
			st.finish(a, net.ErrClosed)
		}
		ln.acceptQ = nil
		st.orphans = append(st.orphans, ln.backlog...)
		ln.backlog = nil
	}
	st.finish(o, nil)
}

// failParked completes every parked op on c with err. Caller holds mu.
func (st *Stack) failParked(c *Conn, err error) {
	for _, o := range c.readQ {
		st.finish(o, err)
	}
	c.readQ = nil
	for _, o := range c.writeQ {
		st.finish(o, err)
	}
	c.writeQ = nil
}

// newConn wraps a substrate conn, inserting it into the id-ordered live
// list. Caller holds mu.
func (st *Stack) newConn(id int64, bc sock.Conn) *Conn {
	c := &Conn{st: st, id: id, bc: bc}
	raddr, rport := bc.Remote()
	c.laddr = Addr{IP: st.opt.LocalIP, Port: bc.LocalPort()}
	c.raddr = Addr{IP: raddr, Port: rport}
	i := sort.Search(len(st.conns), func(i int) bool { return st.conns[i].id >= id })
	st.conns = append(st.conns, nil)
	copy(st.conns[i+1:], st.conns[i:])
	st.conns[i] = c
	return c
}

// sweep revisits every parked op in deterministic (id) order against
// the current substrate state. Caller holds mu.
func (st *Stack) sweep() {
	for _, ln := range st.listeners {
		for len(ln.acceptQ) > 0 {
			o := ln.acceptQ[0]
			if ln.closedLn {
				st.finish(o, net.ErrClosed)
			} else if !st.tryAccept(ln, o) {
				break
			}
			copy(ln.acceptQ, ln.acceptQ[1:])
			ln.acceptQ = ln.acceptQ[:len(ln.acceptQ)-1]
		}
	}
	// Index loop: accepts above and dial completions below may append
	// conns (always with larger ids, hence past the cursor).
	for i := 0; i < len(st.conns); i++ {
		c := st.conns[i]
		if o := c.dialOp; o != nil {
			if c.bc.WasReset() || c.bc.Closed() {
				c.dialOp = nil
				st.finish(o, errRefused)
			} else if c.bc.Established() {
				c.dialOp = nil
				c.anchor()
				o.conn = c
				st.finish(o, nil)
			}
		}
		for len(c.readQ) > 0 && st.tryRead(c.readQ[0]) {
			copy(c.readQ, c.readQ[1:])
			c.readQ = c.readQ[:len(c.readQ)-1]
		}
		for len(c.writeQ) > 0 && st.tryWrite(c.writeQ[0]) {
			copy(c.writeQ, c.writeQ[1:])
			c.writeQ = c.writeQ[:len(c.writeQ)-1]
		}
	}
}

func (st *Stack) tryAccept(ln *Listener, o *op) bool {
	if len(ln.backlog) == 0 {
		return false
	}
	bc := ln.backlog[0]
	copy(ln.backlog, ln.backlog[1:])
	ln.backlog = ln.backlog[:len(ln.backlog)-1]
	st.nextID++
	c := st.newConn(st.nextID, bc)
	c.anchor()
	o.conn = c
	st.finish(o, nil)
	return true
}

// applyEffects performs the deferred sim-visible actions in one pass
// ordered by connection id, then prunes dead conns. Caller holds mu.
func (st *Stack) applyEffects() {
	retry := false
	for _, bc := range st.orphans {
		bc.Abort()
	}
	st.orphans = st.orphans[:0]
	live := st.conns[:0]
	for _, c := range st.conns {
		bc := c.bc
		if c.wantRecv {
			if bc.PostRecv(c.rdPtr) {
				c.wantRecv = false
			} else {
				retry = true
			}
		}
		if c.wantSend {
			if bc.PostSend(c.wrPtr) {
				c.wantSend = false
			} else {
				retry = true
			}
		}
		if c.wantAbort {
			bc.Abort()
			c.wantAbort, c.wantClose = false, false
		}
		if c.wantClose {
			if bc.Close() {
				c.wantClose = false
			} else {
				retry = true
			}
		}
		if c.dead() {
			continue
		}
		live = append(live, c)
	}
	// Zero the pruned tail so dropped conns are collectable.
	for i := len(live); i < len(st.conns); i++ {
		st.conns[i] = nil
	}
	st.conns = live
	for _, ln := range st.listeners {
		if ln.wantListen && !ln.closedLn {
			st.lns[ln.port] = ln
			if st.host.Listen(ln.port) {
				ln.wantListen = false
			} else {
				retry = true
			}
		}
	}
	st.effectRetry = retry
}

// Shutdown fails every parked and future op with net.ErrClosed and
// stands the pump down. Call from the driver while the fabric is idle,
// after the workload is done (pair with Wait to join goroutines).
func (st *Stack) Shutdown() {
	st.mu.Lock()
	st.closed = true
	for _, o := range st.inbox {
		st.finish(o, net.ErrClosed)
	}
	st.inbox = nil
	st.inboxN.Store(0)
	for _, o := range st.dialRetry {
		st.finish(o, net.ErrClosed)
	}
	st.dialRetry = nil
	for _, c := range st.conns {
		if c.dialOp != nil {
			st.finish(c.dialOp, net.ErrClosed)
			c.dialOp = nil
		}
		st.failParked(c, net.ErrClosed)
	}
	for _, ln := range st.listeners {
		for _, o := range ln.acceptQ {
			st.finish(o, net.ErrClosed)
		}
		ln.acceptQ = nil
		ln.closedLn = true
	}
	st.down = true
	st.mu.Unlock()
}
