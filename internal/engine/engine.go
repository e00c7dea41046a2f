// Package engine assembles FtEngine (§4.1.2): the control path (host
// interface, RX parser event generation, timer module, scheduler, FPCs,
// memory manager) and the data path (packet generator with MSS
// splitting, RX parser with cuckoo lookup and logical reassembly, ARP,
// ICMP), connected to host software through the PCIe command/completion
// channels of internal/hostif.
//
// The same type, configured differently, realizes the ablation designs
// of §6: Baseline (stall-mode processing), 1FPC, 1FPC-C (+coalescing)
// and the 8-FPC F4T reference.
package engine

import (
	"fmt"
	"unsafe"

	"f4t/internal/cc"
	"f4t/internal/datapath"
	"f4t/internal/engine/fpc"
	"f4t/internal/engine/memmgr"
	"f4t/internal/engine/sched"
	"f4t/internal/flow"
	"f4t/internal/hostif"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
	"f4t/internal/timerq"
	"f4t/internal/wire"
)

// Config selects the hardware design point.
type Config struct {
	IP  wire.Addr
	MAC wire.MAC

	NumFPCs     int // reference design: 8
	SlotsPerFPC int // reference design: 128
	MaxFlows    int // 65,536 (§5.3)

	Alg    string // congestion-control FPU program
	Memory memmgr.MemoryKind
	// TCBCache overrides the memory manager's direct-mapped cache size
	// (0 = the memory kind's default, -1 = disabled).
	TCBCache int
	Proto    tcpproc.Config

	// Design-variant knobs (Figs 2, 15, 16).
	Mode               fpc.Mode
	StallNum, StallDen int64 // stall-mode cycles per event (rational)
	FPULatency         int   // 0 = take the algorithm's pipeline latency
	Coalesce           bool  // scheduler event coalescing (§4.4.1)

	Channels     int   // host command queue pairs (one per CPU thread)
	CommandBytes int64 // 16, or 8 for the §6 PCIe optimization
	PCIe         hostif.PCIeConfig

	CarryBytes bool // move real payload bytes end to end
	HeaderOnly bool // §6 rig: suppress payload on the wire and over PCIe

	Seed uint64
}

// DefaultConfig is the reference 8-FPC design of §4.7.
func DefaultConfig() Config {
	return Config{
		NumFPCs:      8,
		SlotsPerFPC:  128,
		MaxFlows:     65536,
		Alg:          "newreno",
		Memory:       memmgr.HBM,
		Proto:        tcpproc.DefaultConfig(),
		Mode:         fpc.ModeAccumulate,
		Coalesce:     true,
		Channels:     1,
		CommandBytes: hostif.CommandBytes16,
		PCIe:         hostif.DefaultPCIe(),
	}
}

// Per-cycle work budgets of the modeled hardware (§4.1.2). Each stage
// drains up to its budget per cycle — batching work behind one dispatch
// instead of one item per tick — and the budgets are deterministic
// constants, so serial, skipping, and sharded fabrics process identical
// batches. They are figure semantics, not tunables: widening one changes
// every throughput/latency result. The event-driven dispatch in Tick and
// the sub-components only skips stages whose queues are provably empty;
// it never widens a budget.
const (
	cmdBudgetPerCycle     = 4 // host commands decoded per cycle across channels (①)
	rxBudgetPerCycle      = 2 // frames parsed per cycle (322 MHz parser vs 250 MHz core)
	retryBudgetPerCycle   = 4 // bounced events re-submitted per cycle
	timeoutBudgetPerCycle = 4 // deduped timeout events submitted per cycle
)

// flowMeta is the engine's per-flow directory entry.
type flowMeta struct {
	tcb     *flow.TCB
	meta    datapath.FlowMeta
	channel int // owning host queue pair (RSS, §4.6)
	txRing  *datapath.Ring
	rxRing  *datapath.Ring
	// fetch reads send-payload bytes from txRing; built once per flow so
	// the per-segment emit path does not allocate a closure.
	fetch datapath.PayloadFetch
}

// tcbArenaChunk is the TCB bump-allocator granularity.
const tcbArenaChunk = 256

// tcbArena bump-allocates TCBs in chunks. Slots are deliberately never
// reused: the scheduler's swap-in path parks *flow.TCB pointers on
// kernel timers that can fire after the flow is freed, so recycling a
// slot could hand two connections the same TCB. A dead TCB just pins
// its chunk until the whole chunk is unreferenced; the steady-state
// cost is one allocation per tcbArenaChunk connections instead of one
// per connection.
type tcbArena struct {
	chunk  []flow.TCB
	off    int
	chunks int64 // chunks ever allocated (memory accounting)
}

func (a *tcbArena) alloc() *flow.TCB {
	if a.off >= len(a.chunk) {
		a.chunk = make([]flow.TCB, tcbArenaChunk)
		a.off = 0
		a.chunks++
	}
	t := &a.chunk[a.off]
	a.off++
	return t
}

// memBytes is the arena's allocated footprint (live and dead chunks;
// dead TCBs pin their chunk by design, so this is the honest number).
func (a *tcbArena) memBytes() int64 {
	return a.chunks * tcbArenaChunk * int64(unsafe.Sizeof(flow.TCB{}))
}

type listener struct {
	channels []int // SO_REUSEPORT round-robin over these queue pairs
	next     int
}

// Engine is one FtEngine instance.
type Engine struct {
	K   *sim.Kernel
	cfg Config

	PCIe     *hostif.PCIe
	Channels []*hostif.Channel

	fpcs   []*fpc.FPC
	sch    *sched.Scheduler
	mem    *memmgr.Manager
	parser *datapath.Parser
	gen    *datapath.Generator
	arp    *datapath.ARP
	timers *timerq.Queue

	tx func(*wire.Packet)
	// TX pacing: generated packets serialize through the MAC-side buffer
	// so the control path sees backpressure when the link bottlenecks
	// (§5.1: slower packet generation ⇒ more event accumulation).
	txRate *sim.ByteRate

	flows     flow.Table[*flowMeta] // the flow directory (nil = no such flow)
	live      int                   // non-nil entries of flows
	listeners map[uint16]*listener
	freeIDs   []flow.ID
	nextID    flow.ID
	rng       *sim.Rand
	tcbs      tcbArena

	// Pre-bound hot-path callbacks (built once in New): the steady-state
	// packet path schedules timers and expires deadlines without
	// allocating a closure per event.
	emitFn     func(*wire.Packet)
	transmitFn func(any)
	txFn       func(any)
	timerLookT func(flow.ID) *flow.TCB
	timerFire  func(flow.ID, uint8)

	rxQueue *sim.Queue[*wire.Packet]
	// Events bounced off full coalesce FIFOs, retried a few per cycle in
	// order. Timeout bits dedupe per flow so backpressure cannot grow
	// the backlog beyond one entry per flow.
	retryQ    *sim.Queue[flow.Event]
	toPending flow.Table[uint8] // bounced timeout bits per flow (0 = none waiting)
	toOrder   *sim.Queue[flow.ID]
	compBatch [][]hostif.Completion

	arpWait map[wire.Addr][]*wire.Packet

	// Stats.
	RxPkts, TxPkts  sim.Counter
	RxDropped       sim.Counter
	RxNoFlow        sim.Counter
	CmdsProcessed   sim.Counter
	CompletionsSent sim.Counter
	FlowsAccepted   sim.Counter
	FlowsRejected   sim.Counter // opens refused because the flow table/ID space is exhausted
	RetransSegs     sim.Counter // segments re-sent (loss recovery + RTO)
	OowRstDrops     sim.Counter // inbound RSTs dropped by sequence validation

	// Telemetry (nil when disabled; see telemetry.go).
	trc *telemetry.Trace
	tid int32
	ft  *telemetry.FlowTable
}

// New builds an engine; tx attaches the network link.
func New(k *sim.Kernel, cfg Config, tx func(*wire.Packet)) *Engine {
	if cfg.NumFPCs <= 0 {
		cfg.NumFPCs = 1
	}
	if cfg.SlotsPerFPC <= 0 {
		cfg.SlotsPerFPC = 128
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 65536
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.CommandBytes == 0 {
		cfg.CommandBytes = hostif.CommandBytes16
	}
	if cfg.Proto.MSS == 0 {
		cfg.Proto = tcpproc.DefaultConfig()
	}
	if cfg.Alg == "" {
		cfg.Alg = "newreno"
	}

	e := &Engine{
		K:         k,
		cfg:       cfg,
		tx:        tx,
		listeners: make(map[uint16]*listener),
		rng:       sim.NewRand(cfg.Seed + 11),
		rxQueue:   sim.NewQueue[*wire.Packet](4096),
		retryQ:    sim.NewQueue[flow.Event](0),
		toOrder:   sim.NewQueue[flow.ID](0),
		arpWait:   make(map[wire.Addr][]*wire.Packet),
		timers:    timerq.New(),
		parser:    datapath.NewParser(cfg.MaxFlows, cfg.Proto.RcvBuf, cfg.Proto.WndScale, cfg.Seed+12),
		gen:       datapath.NewGenerator(cfg.Proto.MSS, cfg.Proto.WndScale),
		arp:       datapath.NewARP(cfg.IP, cfg.MAC),
	}
	if cfg.Proto.ECN {
		e.gen.EnableECN()
	}

	e.txRate = sim.GbpsRate(100)
	e.PCIe = hostif.NewPCIe(k, cfg.PCIe)
	e.Channels = make([]*hostif.Channel, cfg.Channels)
	e.compBatch = make([][]hostif.Completion, cfg.Channels)
	for i := range e.Channels {
		e.Channels[i] = hostif.NewChannel(k, e.PCIe, cfg.CommandBytes)
	}

	alg := cc.MustNew(cfg.Alg)
	memCfg := memmgr.DefaultConfig(cfg.Memory)
	switch {
	case cfg.TCBCache > 0:
		memCfg.CacheSize = cfg.TCBCache
	case cfg.TCBCache < 0:
		memCfg.CacheSize = 0
	}
	e.mem = memmgr.New(k, memCfg, memmgr.Hooks{
		OnSwapInRequest: func(id flow.ID) { e.sch.RequestSwapIn(id) },
	})
	e.fpcs = make([]*fpc.FPC, cfg.NumFPCs)
	for i := range e.fpcs {
		idx := i
		e.fpcs[i] = fpc.New(k, fpc.Config{
			Slots:      cfg.SlotsPerFPC,
			FPULatency: cfg.FPULatency,
			Mode:       cfg.Mode,
			StallNum:   cfg.StallNum,
			StallDen:   cfg.StallDen,
			Alg:        alg,
			Proto:      &e.cfg.Proto,
			CanIssue:   e.txReady,
		}, fpc.Hooks{
			OnActions:    func(t *flow.TCB, a *tcpproc.Actions) { e.applyActions(t, a) },
			OnEvict:      func(t *flow.TCB) { e.sch.Evicted(idx, t) },
			OnInstall:    func(id flow.ID) { e.sch.Installed(idx, id) },
			OnEvictAbort: func(id flow.ID) { e.sch.EvictAborted(idx, id) },
		})
	}
	schedCfg := sched.DefaultConfig(cfg.MaxFlows, cfg.NumFPCs)
	schedCfg.Coalesce = cfg.Coalesce
	e.sch = sched.New(k, schedCfg, e.fpcs, e.mem)
	// Doorbell wakes: a host Post must pull the kernel out of a
	// quiescent skip so the command is fetched on the next cycle.
	for _, ch := range e.Channels {
		ch.SetDoorbell(func() { k.Wake(e) })
	}
	e.emitFn = e.emitPacket
	e.transmitFn = func(arg any) { e.transmit(arg.(*wire.Packet)) }
	e.txFn = func(arg any) { e.tx(arg.(*wire.Packet)) }
	e.timerLookT = func(id flow.ID) *flow.TCB {
		if fm := e.flows.Get(id); fm != nil {
			return fm.tcb
		}
		return nil
	}
	e.timerFire = func(id flow.ID, kind uint8) {
		e.submit(flow.Event{Kind: flow.EvTimeout, Flow: id, Timeouts: kind, Coalescable: true})
	}
	return e
}

// SetTx attaches the wire transmit function.
func (e *Engine) SetTx(tx func(*wire.Packet)) { e.tx = tx }

// LearnPeer installs a static ARP entry.
func (e *Engine) LearnPeer(ip wire.Addr, mac wire.MAC) { e.arp.Learn(ip, mac) }

// Scheduler exposes the scheduler for tests and experiment probes.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sch }

// Mem exposes the memory manager for tests.
func (e *Engine) Mem() *memmgr.Manager { return e.mem }

// FPCs exposes the flow processing cores for tests.
func (e *Engine) FPCs() []*fpc.FPC { return e.fpcs }

// FlowCount returns live flows across all locations.
func (e *Engine) FlowCount() int { return e.live }

// TCB returns a flow's TCB (tests/diagnostics).
func (e *Engine) TCB(id flow.ID) *flow.TCB {
	if fm := e.flows.Get(id); fm != nil {
		return fm.tcb
	}
	return nil
}

// TxRingSize returns the per-flow send-buffer capacity in bytes (the
// 512 KB TCP buffer of §5), which bounds host-side Send admission even
// in modelled mode.
func (e *Engine) TxRingSize() uint32 { return e.cfg.Proto.RcvBuf }

// TxRing returns a flow's TX data buffer (host library writes send bytes
// here before posting the Send command). Nil in modelled mode.
func (e *Engine) TxRing(id flow.ID) *datapath.Ring {
	if fm := e.flows.Get(id); fm != nil {
		return fm.txRing
	}
	return nil
}

// RxRing returns a flow's RX data buffer (host library reads received
// bytes from here). Nil in modelled mode.
func (e *Engine) RxRing(id flow.ID) *datapath.Ring {
	if fm := e.flows.Get(id); fm != nil {
		return fm.rxRing
	}
	return nil
}

// allocID draws a flow ID from the free list.
func (e *Engine) allocID() (flow.ID, bool) {
	if n := len(e.freeIDs); n > 0 {
		id := e.freeIDs[n-1]
		e.freeIDs = e.freeIDs[:n-1]
		return id, true
	}
	if int(e.nextID) >= e.cfg.MaxFlows {
		return 0, false
	}
	id := e.nextID
	e.nextID++
	return id, true
}

// newFlow allocates the TCB, directory entry, parser registration and
// data rings for one connection and places it via the scheduler.
func (e *Engine) newFlow(tuple wire.FourTuple, channel int, state flow.State) (*flowMeta, bool) {
	id, ok := e.allocID()
	if !ok {
		return nil, false
	}
	iss := seqnum.Value(e.rng.Uint32())
	t := e.tcbs.alloc()
	*t = flow.TCB{
		FlowID: id,
		Tuple:  tuple,
		State:  state,
		ISS:    iss,
		SndUna: iss, SndNxt: iss, Req: iss,
		RcvBuf: e.cfg.Proto.RcvBuf,
	}
	t.AckedToHost = iss.Add(1)
	fm := &flowMeta{
		tcb:     t,
		meta:    datapath.FlowMeta{Tuple: tuple, LocalMAC: e.cfg.MAC},
		channel: channel,
	}
	if e.cfg.CarryBytes {
		size := 1
		for size < int(e.cfg.Proto.RcvBuf)*2 {
			size <<= 1
		}
		fm.txRing = datapath.NewRing(size)
		fm.rxRing = datapath.NewRing(size)
	}
	if fm.txRing != nil && !e.cfg.HeaderOnly {
		ring := fm.txRing
		fm.fetch = func(seq seqnum.Value, buf []byte) { ring.ReadInto(seq, buf) }
	}
	if !e.parser.Register(tuple, id, fm.rxRing) {
		e.freeIDs = append(e.freeIDs, id)
		return nil, false
	}
	e.flows.Set(id, fm)
	e.live++
	e.sch.AllocateFlow(t)
	return fm, true
}

// freeFlow releases every trace of a terminated connection.
func (e *Engine) freeFlow(id flow.ID) {
	fm := e.flows.Get(id)
	if fm == nil {
		return
	}
	e.parser.Deregister(fm.meta.Tuple, id)
	e.sch.FlowFreed(id)
	e.flows.Clear(id)
	e.live--
	e.freeIDs = append(e.freeIDs, id)
}

// DeliverPacket is the wire RX entry point (attach as the link sink).
// Frames queue behind the parser pipeline.
func (e *Engine) DeliverPacket(pkt *wire.Packet) {
	if !e.rxQueue.Push(pkt) {
		e.RxDropped.Inc() // parser queue overrun: drop like a real NIC
		if pkt.Kind == wire.KindTCP {
			wire.PutPacket(pkt)
		}
	}
	e.K.Wake(e) // packet arrival revives a quiescent engine
}

// NextWork implements sim.Sleeper: the engine can act next cycle while
// any stage holds work (host commands, RX frames, bounced events), and
// otherwise at the earliest of its sub-components' own deadlines (FPU
// pipeline retirements, DRAM access completions, pending-queue retries)
// and the timer module's next deadline. Work in flight on kernel timers
// (PCIe DMA, TX serialization, TCB migration reads) needs no entry
// here — those timers bound the kernel's skip directly.
func (e *Engine) NextWork(now int64) int64 {
	next := sim.Dormant
	for _, ch := range e.Channels {
		if w := ch.NextWork(now); w <= now+1 {
			return now + 1
		} else if w < next {
			next = w
		}
	}
	if e.rxQueue.Len() > 0 || e.retryQ.Len() > 0 || e.toOrder.Len() > 0 {
		return now + 1
	}
	if w := e.sch.NextWork(now); w < next {
		next = w
	}
	if next <= now+1 {
		return now + 1
	}
	for _, f := range e.fpcs {
		if w := f.NextWork(now); w < next {
			next = w
		}
		if next <= now+1 {
			return now + 1
		}
	}
	if w := e.mem.NextWork(now); w < next {
		next = w
	}
	// The timer module scans for due deadlines every ticked cycle; a
	// pending deadline D ns fires on the first tick with NowNS() >= D.
	// Expired/stale entries are popped each tick, so after any tick the
	// head deadline is strictly in the future.
	if d := e.timers.NextDeadline(); d > 0 {
		if c := sim.NSToCycles(d); c < next {
			next = c
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// Tick advances the whole engine one cycle in a fixed, deterministic
// order: host commands → RX parsing → timers → scheduler → FPCs →
// memory manager → completion flush.
func (e *Engine) Tick(cycle int64) {
	for _, ch := range e.Channels {
		ch.TickDevice()
	}
	e.drainCommands()
	e.drainRx()
	e.fireTimers()
	e.sch.Tick(cycle)
	for _, f := range e.fpcs {
		f.Tick(cycle)
	}
	e.mem.Tick(cycle)
	e.flushCompletions()
}

// drainCommands converts fetched host commands into events (the host
// interface of §4.1.2 ①). Up to four commands per cycle across channels.
func (e *Engine) drainCommands() {
	budget := cmdBudgetPerCycle
	for _, ch := range e.Channels {
		// Test the backlog before peeking: most channels are empty on most
		// cycles, and a by-value peek of an empty queue builds a zero
		// Command on the stack only to discard it.
		for budget > 0 && ch.DeviceBacklog() > 0 {
			cmd, _ := ch.PeekCommand()
			// Backpressure: leave flow commands in this queue while the
			// scheduler's coalesce FIFO for that flow is full; other
			// channels may still drain.
			blocked := false
			switch cmd.Op {
			case hostif.OpSend, hostif.OpRecv, hostif.OpClose, hostif.OpAbort:
				blocked = !e.sch.SubmitSpace(cmd.Flow)
			}
			if blocked {
				break
			}
			ch.PopCommand()
			e.execCommand(ch, cmd)
			e.CmdsProcessed.Inc()
			budget--
		}
	}
}

func (e *Engine) channelIndex(ch *hostif.Channel) int {
	for i, c := range e.Channels {
		if c == ch {
			return i
		}
	}
	return 0
}

// execCommand interprets one 16 B command.
func (e *Engine) execCommand(ch *hostif.Channel, cmd hostif.Command) {
	chIdx := e.channelIndex(ch)
	switch cmd.Op {
	case hostif.OpListen:
		l := e.listeners[cmd.LocalPort]
		if l == nil {
			l = &listener{}
			e.listeners[cmd.LocalPort] = l
		}
		l.channels = append(l.channels, chIdx)
	case hostif.OpConnect:
		tuple := wire.FourTuple{
			LocalAddr: e.cfg.IP, RemoteAddr: cmd.RemoteAddr,
			LocalPort: cmd.LocalPort, RemotePort: cmd.RemotePort,
		}
		fm, ok := e.newFlow(tuple, chIdx, flow.StateClosed)
		if !ok {
			// Flow table or ID space exhausted: the open aborts cleanly —
			// the host sees a reset completion, telemetry counts the drop.
			// No hardware flow ID exists yet, so the completion carries the
			// local port: that is the handle the library correlates active
			// opens by (same correlation as CompAccepted).
			e.FlowsRejected.Inc()
			e.queueCompletion(chIdx, hostif.Completion{Kind: hostif.CompReset, Port: cmd.LocalPort})
			return
		}
		// The host pre-names the flow: it chose cmd.Flow as a handle. The
		// engine replies with the established completion carrying the
		// hardware flow ID; the library correlates via the local port.
		e.queueCompletion(chIdx, hostif.Completion{
			Kind: hostif.CompAccepted, Flow: fm.tcb.FlowID, Port: cmd.LocalPort,
		})
		e.submit(flow.Event{Kind: flow.EvUser, Flow: fm.tcb.FlowID, Ctl: flow.CtlOpen})
	case hostif.OpSend:
		e.submit(flow.Event{Kind: flow.EvUser, Flow: cmd.Flow, HasReq: true, Req: cmd.Ptr, Coalescable: true})
	case hostif.OpRecv:
		e.submit(flow.Event{Kind: flow.EvUser, Flow: cmd.Flow, HasRead: true, AppRead: cmd.Ptr, Coalescable: true})
	case hostif.OpClose:
		e.submit(flow.Event{Kind: flow.EvUser, Flow: cmd.Flow, Ctl: flow.CtlClose})
	case hostif.OpAbort:
		e.submit(flow.Event{Kind: flow.EvUser, Flow: cmd.Flow, Ctl: flow.CtlAbort})
	}
}

// submit pushes an event into the scheduler, spilling to the retry
// queues under backpressure so no event is ever lost.
func (e *Engine) submit(ev flow.Event) {
	if e.sch.Submit(ev) {
		return
	}
	if ev.Kind == flow.EvTimeout {
		bits := e.toPending.At(ev.Flow)
		if *bits == 0 {
			e.toOrder.Push(ev.Flow)
		}
		*bits |= ev.Timeouts
		return
	}
	e.retryQ.Push(ev)
}

// drainRx runs the RX parser pipeline: up to two packets per cycle
// (the 322 MHz parser outpaces the 250 MHz control path).
func (e *Engine) drainRx() {
	for i := 0; i < rxBudgetPerCycle; i++ {
		pkt, ok := e.rxQueue.Peek()
		if !ok {
			return
		}
		if pkt.Kind == wire.KindTCP {
			// Only pop when the scheduler can take the event; otherwise
			// the parser back-pressures like real hardware.
			id, known := e.parser.Lookup(pkt.Tuple())
			if known && !e.sch.SubmitSpace(id) {
				return
			}
		}
		e.rxQueue.Pop()
		e.handleRx(pkt)
		if pkt.Kind == wire.KindTCP {
			// The parser copied everything it needs (payload bytes into
			// the reassembly ring, header fields into the event), so the
			// engine is the frame's last reader and recycles it. ARP and
			// ICMP frames are excluded: their replies may alias the
			// request's payload slice.
			wire.PutPacket(pkt)
		}
	}
}

// handleRx processes one frame: ARP/ICMP inline, TCP through the parser.
func (e *Engine) handleRx(pkt *wire.Packet) {
	e.RxPkts.Inc()
	switch pkt.Kind {
	case wire.KindARP:
		if reply := e.arp.Handle(pkt); reply != nil {
			e.transmit(reply)
		}
		e.flushARPWait(pkt.ARP.SenderIP)
		return
	case wire.KindICMP:
		if reply := datapath.HandleICMP(pkt, e.cfg.IP, e.cfg.MAC); reply != nil {
			e.transmit(reply)
		}
		return
	}

	res := e.parser.Parse(pkt)
	if res.NoFlow {
		if pkt.TCP.Flags&wire.FlagSYN != 0 && pkt.TCP.Flags&wire.FlagACK == 0 {
			if l := e.listeners[pkt.TCP.DstPort]; l != nil {
				// SO_REUSEPORT: new flows round-robin over the listening
				// threads' queues (§4.6).
				ch := l.channels[l.next%len(l.channels)]
				l.next++
				fm, ok := e.newFlow(pkt.Tuple(), ch, flow.StateListen)
				if !ok {
					// Table full: refuse the open loudly. The RST tells the
					// client immediately (instead of letting its SYN
					// retransmit into the void), and the counter makes the
					// rejection observable — a silently dropped SYN at scale
					// looks exactly like the old victim-loss bug.
					e.FlowsRejected.Inc()
					if rst := datapath.OrphanRST(pkt, e.cfg.IP, e.cfg.MAC); rst != nil {
						e.transmit(rst)
					}
					return
				}
				fm.meta.PeerMAC = pkt.Eth.Src
				e.arp.Learn(pkt.IP.Src, pkt.Eth.Src)
				e.FlowsAccepted.Inc()
				res = e.parser.Parse(pkt)
				if res.NoFlow {
					return
				}
				e.submit(res.Event)
				return
			}
		}
		e.RxNoFlow.Inc()
		// RFC 793 §3.4: a non-RST segment to a non-existent connection
		// draws a reset, so peers holding stale state tear down promptly
		// instead of retransmitting into the void until their RTO chain
		// exhausts.
		if rst := datapath.OrphanRST(pkt, e.cfg.IP, e.cfg.MAC); rst != nil {
			e.transmit(rst)
		}
		return
	}
	if res.Dropped {
		e.RxDropped.Inc()
	}
	// RX payload DMA to the host buffer (§4.1.2 ③): device → host bytes.
	if pkt.PayloadLen > 0 && !res.Dropped && !e.cfg.HeaderOnly {
		e.PCIe.TransferToHost(int64(pkt.PayloadLen))
	}
	e.submit(res.Event)
}

// fireTimers turns due deadlines into timeout events (§4.1.2 ③), and
// retries events that bounced off full FIFOs (bounded per cycle,
// stopping at the first still-blocked entry to preserve order).
func (e *Engine) fireTimers() {
	for i := 0; i < retryBudgetPerCycle && e.retryQ.Len() > 0; i++ {
		ev, ok := e.retryQ.Peek()
		if !ok || !e.sch.Submit(ev) {
			break
		}
		e.retryQ.Pop()
	}
	for i := 0; i < timeoutBudgetPerCycle && e.toOrder.Len() > 0; i++ {
		id, ok := e.toOrder.Peek()
		if !ok {
			break
		}
		bits := e.toPending.Get(id)
		if bits == 0 {
			e.toOrder.Pop()
			continue
		}
		if !e.sch.Submit(flow.Event{Kind: flow.EvTimeout, Flow: id, Timeouts: bits, Coalescable: true}) {
			break
		}
		e.toOrder.Pop()
		e.toPending.Clear(id)
	}
	// Event-driven fast path: scanning the timer module costs nothing
	// while the earliest deadline is in the future — the common case on
	// every ticked cycle of a saturated run.
	if d := e.timers.NextDeadline(); d != 0 && d <= e.K.NowNS() {
		e.timers.Expire(e.K.NowNS(), e.timerLookT, e.timerFire)
	}
}

// applyActions is the FPU output stage: segments to the packet
// generator, notes to the completion path, timers to the timer module.
func (e *Engine) applyActions(t *flow.TCB, a *tcpproc.Actions) {
	fm := e.flows.Get(t.FlowID)
	if fm == nil {
		return
	}
	for i := range a.Segs {
		e.emitSegment(fm, &a.Segs[i])
	}
	for i := range a.Notes {
		e.emitNote(fm, &a.Notes[i])
	}
	e.timers.SyncFromTCB(t)
	if a.OowRstDropped {
		e.OowRstDrops.Inc()
	}
	if a.FreeFlow {
		e.freeFlow(t.FlowID)
	}
}

// emitSegment resolves the peer MAC, fetches payload over PCIe and
// transmits the generated packets (§4.1.2 ①②).
func (e *Engine) emitSegment(fm *flowMeta, op *tcpproc.SendOp) {
	if op.Retransmit {
		e.RetransSegs.Inc()
		if e.ft != nil || e.trc != nil {
			e.ft.OnRetransmit(uint32(fm.tcb.FlowID))
			e.trc.Instant("engine", "tcp.retransmit", e.tid, e.K.NowNS(), int64(fm.tcb.FlowID))
		}
	}
	mac, req, ok := e.arp.Resolve(fm.meta.Tuple.RemoteAddr)
	if !ok {
		// Unresolved peer (cold path): park the generated packets until
		// the ARP reply arrives; flushARPWait fills in the MAC.
		meta := fm.meta
		e.gen.Build(*op, meta, fm.fetch, func(p *wire.Packet) {
			e.arpWait[fm.meta.Tuple.RemoteAddr] = append(e.arpWait[fm.meta.Tuple.RemoteAddr], p)
		})
		if req != nil {
			e.transmit(req)
		}
		return
	}
	fm.meta.PeerMAC = mac
	e.gen.Build(*op, fm.meta, fm.fetch, e.emitFn)
}

// emitPacket is the generator's emit callback on the resolved path (the
// peer MAC is already in the headers).
func (e *Engine) emitPacket(p *wire.Packet) {
	if e.cfg.HeaderOnly {
		p.HeaderOnly = true
		e.transmit(p)
		return
	}
	if p.PayloadLen > 0 {
		// TX payload DMA: the generator fetches the bytes from host
		// memory just before transmission (§4.1.2 ②).
		done := e.PCIe.TransferToDevice(int64(p.PayloadLen))
		e.K.AtCall(done, e.transmitFn, p)
		return
	}
	e.transmit(p)
}

// txBackpressureCycles is the MAC-side buffer depth, in cycles of link
// occupancy, beyond which the control path pauses TCB issue.
const txBackpressureCycles = 120 // ~3 full frames at 100 Gbps

// txReady reports whether the TX buffer has room for more generated
// packets (the FPCs' issue gate).
func (e *Engine) txReady() bool {
	return e.txRate.Backlog(e.K.Now()) < txBackpressureCycles
}

// transmit serializes the packet through the MAC-side pacing buffer and
// hands it to the wire when its slot comes up.
func (e *Engine) transmit(pkt *wire.Packet) {
	e.TxPkts.Inc()
	if e.tx == nil {
		return
	}
	done := e.txRate.Reserve(e.K.Now(), int64(pkt.WireLen()))
	e.K.AtCall(done, e.txFn, pkt)
}

// flushARPWait releases packets parked on a resolution.
func (e *Engine) flushARPWait(ip wire.Addr) {
	pkts := e.arpWait[ip]
	if len(pkts) == 0 {
		return
	}
	delete(e.arpWait, ip)
	mac, _, ok := e.arp.Resolve(ip)
	if !ok {
		return
	}
	for _, p := range pkts {
		p.Eth.Dst = mac
		e.transmit(p)
	}
}

// emitNote converts a protocol notification into a host completion.
func (e *Engine) emitNote(fm *flowMeta, n *tcpproc.Note) {
	var kind hostif.CompKind
	switch n.Kind {
	case tcpproc.NoteEstablished:
		kind = hostif.CompEstablished
	case tcpproc.NoteDataAcked:
		kind = hostif.CompAcked
	case tcpproc.NoteDataDelivered:
		kind = hostif.CompDelivered
	case tcpproc.NotePeerClosed:
		kind = hostif.CompPeerClosed
	case tcpproc.NoteClosed:
		kind = hostif.CompClosed
	case tcpproc.NoteReset:
		kind = hostif.CompReset
	default:
		return
	}
	comp := hostif.Completion{
		Kind: kind, Flow: n.Flow, Seq: n.Seq, Port: fm.meta.Tuple.LocalPort,
	}
	if n.Kind == tcpproc.NoteEstablished {
		// Anchor both byte streams for the library: send side (ISS+1 =
		// SndUna at establishment) and receive side (IRS+1).
		comp.Seq = fm.tcb.SndUna
		comp.Seq2 = fm.tcb.RcvNxt
	}
	e.queueCompletion(fm.channel, comp)
}

func (e *Engine) queueCompletion(ch int, comp hostif.Completion) {
	e.compBatch[ch] = append(e.compBatch[ch], comp)
}

// flushCompletions DMA-writes each channel's batch once per cycle
// (completion batching keeps the PCIe TLP overhead amortized, §4.6).
func (e *Engine) flushCompletions() {
	for i, batch := range e.compBatch {
		if len(batch) == 0 {
			continue
		}
		e.Channels[i].PushCompletions(batch)
		e.CompletionsSent.Add(int64(len(batch)))
		e.compBatch[i] = batch[:0]
	}
}

// String summarizes engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{flows=%d fpcs=%d dram=%d}", e.live, len(e.fpcs), e.mem.FlowCount())
}
