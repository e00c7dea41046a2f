// Package fpc models the Flow Processing Core (§4.2) at cycle
// granularity: the event handler that accumulates events into the event
// table, the dual-memory TCB/event tables with their two-cycle port
// schedule (§4.2.3), the round-robin TCB manager, the fully pipelined
// stateless FPU, the evict checker, and the CAM mapping global flow IDs
// to local table indices (§4.4.2).
//
// The same type also implements the stall-based baseline design of
// Figs 2/15/16 (Limago-style w-RMW processing) via ModeStall, so the
// ablation experiments compare identical machinery differing only in the
// property under study.
package fpc

import (
	"fmt"
	"math/bits"

	"f4t/internal/cc"
	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
)

// Mode selects the processing architecture.
type Mode uint8

const (
	// ModeAccumulate is the F4T design: events are handled (accumulated)
	// back-to-back at one per two cycles and processed in batches by the
	// pipelined FPU (§4.2).
	ModeAccumulate Mode = iota
	// ModeStall is the baseline design that processes each event as an
	// atomic read-modify-write, stalling between events (§3.1).
	ModeStall
)

// Config parameterizes one FPC.
type Config struct {
	Slots      int // TCB table entries (reference design: 128)
	FPULatency int // FPU pipeline depth in cycles (from the CC algorithm)
	Mode       Mode

	// ModeStall: total cycles one event occupies the unit, expressed as a
	// rational in 250 MHz cycles so foreign clock domains (e.g. the
	// 322 MHz/17-cycle design of [44]) model exactly.
	StallNum, StallDen int64

	Alg   cc.Algorithm
	Proto *tcpproc.Config

	// IssueFrom, when set, gates TCB issue on downstream readiness (TX
	// backpressure): it returns the first cycle at which an issue is
	// allowed, given the TX reservations made so far. When the packet
	// generator/MAC is congested, issues pause and events keep
	// accumulating, so the eventual pass emits one larger transfer — the
	// §5.1 mechanism that lets F4T sustain goodput on small-request
	// traffic once the link bottlenecks. The value may only move later
	// between calls; NextWork relies on that to sleep until the gate
	// opens.
	IssueFrom func() int64
}

// Hooks are the FPC's outputs, wired by the engine.
type Hooks struct {
	// OnActions delivers one FPU pass's outputs (segments, notes, timer
	// deadlines are already in the TCB).
	OnActions func(t *flow.TCB, a *tcpproc.Actions)
	// OnEvict delivers a TCB captured by the evict checker (§4.3.2).
	OnEvict func(t *flow.TCB)
	// OnInstall fires when a migrated-in TCB lands in the TCB table; the
	// scheduler flips the location LUT on this signal (§4.3.2).
	OnInstall func(id flow.ID)
	// OnEvictAbort fires when a flow marked for eviction terminated in
	// its final FPU pass instead; the scheduler releases the eviction
	// slot it was holding.
	OnEvictAbort func(id flow.ID)
}

// slot is one row of the dual memory: the TCB table entry plus the event
// table entry with its valid bits.
type slot struct {
	used  bool
	tcb   *flow.TCB
	row   flow.EventRow // the event table entry (§4.2.1)
	inFPU bool
	evict bool
	ready bool // queued for the TCB manager (issue bookkeeping)
}

// ageNever is the age of a slot ColdestFlow must not pick: unused, or
// already marked for eviction.
const ageNever = int64(1) << 62

type inflight struct {
	idx    int
	doneAt int64
}

// FPC is one flow processing core.
type FPC struct {
	k     *sim.Kernel
	cfg   Config
	hooks Hooks

	slots []slot
	cam   flow.Table[uint16] // CAM: global flow ID → table index + 1, 0 = miss (§4.4.2)
	flows int                // resident flows (CAM entries set)
	// The victim and free-slot searches read these compact per-slot arrays
	// instead of walking the slot structs (event rows included).
	age  []int64  // cycle of the slot's last event; ageNever when unused or evicting
	free []uint64 // bitmap of unused slots, bit i%64 of word i/64

	// The four work queues are embedded by value so NextWork and Tick
	// read their lengths off the FPC's own cache lines.
	input    sim.Queue[flow.Event] // routed events awaiting handling
	incoming sim.Queue[*flow.TCB]  // swap-ins via the dedicated write port (bounded by reservations)
	reserved int                   // slots held for migrations in flight

	ready      sim.Queue[int] // slots awaiting issue, FIFO ≈ round-robin
	lastIssue  int64          // cycle of the last FPU issue (II enforcement)
	lastHandle int64          // cycle of the last event handled (2-cycle schedule)
	pipe       sim.Queue[inflight]

	// ModeStall state.
	stallBusyUntil int64
	stallFrac      int64 // accumulated fractional cycles (den-scaled)

	actions tcpproc.Actions // scratch

	// next caches NextWork for the engine, which ticks the FPC only when
	// Due; every due tick refreshes it. stale marks it for recomputation
	// and is set by every input. Without an input or a tick every gate
	// NextWork reads only moves later, so a cached value can be early,
	// never late.
	next  int64
	stale bool

	enqueueKeepsCache bool // a planted defect; see BreakEnqueueStaleMark

	// Stats.
	EventsHandled sim.Counter
	Processed     sim.Counter // FPU passes completed
	Stalls        sim.Counter // cycles the stall-mode unit was busy

	// Telemetry (nil when disabled; see telemetry.go).
	trc *telemetry.Trace
	tid int32
}

// issueInterval is the TCB manager's initiation interval (II) in
// cycles (§4.2.2).
const issueInterval = 2

// inputDepth is the routed-event queue depth; the scheduler watches this
// backlog for load balancing (§4.4.2).
const inputDepth = 16

// New builds an FPC.
func New(k *sim.Kernel, cfg Config, hooks Hooks) *FPC {
	if cfg.FPULatency <= 0 {
		cfg.FPULatency = cfg.Alg.PipelineLatency()
	}
	if cfg.Mode == ModeStall && cfg.StallDen == 0 {
		cfg.StallNum, cfg.StallDen = int64(cfg.FPULatency), 1
	}
	if cfg.Slots <= 0 || cfg.Slots >= 1<<16 {
		panic("fpc: Slots must be positive and fit the CAM's 16-bit table index")
	}
	f := &FPC{
		k:          k,
		cfg:        cfg,
		hooks:      hooks,
		slots:      make([]slot, cfg.Slots),
		age:        make([]int64, cfg.Slots),
		free:       make([]uint64, (cfg.Slots+63)/64),
		input:      sim.MakeQueue[flow.Event](inputDepth),
		lastIssue:  -10,
		lastHandle: -10,
		stale:      true,
	}
	for i := range f.slots {
		f.age[i] = ageNever
		f.free[i/64] |= 1 << (i % 64)
	}
	return f
}

// FlowCount returns resident flows.
func (f *FPC) FlowCount() int { return f.flows }

// lookup is the CAM search: the flow's table index, or false on a miss.
func (f *FPC) lookup(id flow.ID) (int, bool) {
	n := f.cam.Get(id)
	return int(n) - 1, n != 0
}

// HasSlot reports whether a free TCB table entry exists, accounting for
// swap-ins already in the incoming queue and reservations held by
// migrations in flight.
func (f *FPC) HasSlot() bool {
	return f.flows+f.incoming.Len()+f.reserved < f.cfg.Slots
}

// ReserveSlot holds one slot for a migration in flight, so a TCB read
// from DRAM is guaranteed a home when it arrives (§4.3.2: the scheduler
// "can continuously migrate TCBs"). Release with AcceptTCB (which
// converts the hold) or ReleaseReservation (migration aborted).
func (f *FPC) ReserveSlot() bool {
	if !f.HasSlot() {
		return false
	}
	f.reserved++
	return true
}

// ReleaseReservation returns a held slot (the migration was abandoned).
func (f *FPC) ReleaseReservation() {
	if f.reserved > 0 {
		f.reserved--
	}
}

// Has reports whether the flow is resident.
func (f *FPC) Has(id flow.ID) bool {
	_, ok := f.lookup(id)
	return ok
}

// InputBacklog returns routed events not yet handled (the scheduler's
// backpressure signal).
func (f *FPC) InputBacklog() int { return f.input.Len() }

// IncomingLen returns migrated TCBs awaiting installation (diagnostics).
func (f *FPC) IncomingLen() int { return f.incoming.Len() }

// Reserved returns slot reservations currently held (diagnostics).
func (f *FPC) Reserved() int { return f.reserved }

// EvictsPending counts resident slots with the evict flag set
// (diagnostics/invariant checks).
func (f *FPC) EvictsPending() int {
	n := 0
	for i := range f.slots {
		if f.slots[i].used && f.slots[i].evict {
			n++
		}
	}
	return n
}

// EnqueueEvent routes one event into the FPC. False = queue full
// (backpressure).
func (f *FPC) EnqueueEvent(ev flow.Event) bool {
	if !f.input.Push(ev) {
		return false
	}
	f.stale = f.stale || !f.enqueueKeepsCache
	return true
}

// BreakEnqueueStaleMark plants a defect for the shadow checker's
// negative test: EnqueueEvent stops marking the cached next cycle
// stale, so a routed event waits for whatever the cache said.
func (f *FPC) BreakEnqueueStaleMark() { f.enqueueKeepsCache = true }

// AcceptTCB installs a migrated-in TCB through the dedicated write port
// (one every two cycles, §4.3.2). The caller must hold a reservation
// from ReserveSlot; AcceptTCB converts it into an incoming-queue hold.
func (f *FPC) AcceptTCB(t *flow.TCB) bool {
	if f.reserved == 0 {
		// Defensive: accept only with spare capacity when unreserved.
		if !f.HasSlot() {
			return false
		}
	} else {
		f.reserved--
	}
	if !f.incoming.Push(t) {
		return false
	}
	f.stale = true
	return true
}

// InstallNew places a brand-new flow's TCB directly (flow allocation by
// the scheduler, §4.4.2). It bypasses the migration port because new
// flows are created empty.
func (f *FPC) InstallNew(t *flow.TCB) bool {
	if !f.HasSlot() {
		return false
	}
	f.install(t)
	f.stale = true
	return true
}

// install places a TCB in the lowest-indexed free slot.
func (f *FPC) install(t *flow.TCB) {
	for w, word := range f.free {
		if word == 0 {
			continue
		}
		i := w*64 + bits.TrailingZeros64(word)
		f.free[w] &^= 1 << (i % 64)
		f.slots[i] = slot{used: true, tcb: t}
		f.age[i] = f.k.Now()
		row := f.cam.At(t.FlowID)
		if *row == 0 {
			f.flows++
		}
		*row = uint16(i + 1)
		// A migrated-in TCB may carry event inputs accumulated while
		// it lived in DRAM; those demand a processing pass (§4.3.1).
		if t.In.Valid != 0 {
			f.markReady(i)
		}
		return
	}
	panic("fpc: install with no free slot")
}

// ColdestFlow returns the least recently active resident flow that is not
// already marked for eviction (§4.3.2), or NoFlow when none qualifies.
// Ties go to the lowest table index.
func (f *FPC) ColdestFlow() flow.ID {
	if f.flows == 0 {
		// Every slot reserved for swap-ins still in flight: the scheduler
		// asks each cycle it stays blocked, so skip the scan.
		return flow.NoFlow
	}
	best, bestAge := -1, ageNever
	for i, a := range f.age {
		if a < bestAge {
			best, bestAge = i, a
		}
	}
	if best < 0 {
		return flow.NoFlow
	}
	return f.slots[best].tcb.FlowID
}

// RequestEvict sets the evict flag on a resident flow's TCB; the evict
// checker captures it after its next FPU pass. False when not resident.
func (f *FPC) RequestEvict(id flow.ID) bool {
	idx, ok := f.lookup(id)
	if !ok {
		return false
	}
	f.slots[idx].evict = true
	f.age[idx] = ageNever
	f.slots[idx].tcb.EvictFlag = true
	f.markReady(idx)
	f.stale = true
	return true
}

// markReady queues a slot for the TCB manager. Slots in the FPU are
// re-checked at completion instead.
func (f *FPC) markReady(idx int) {
	s := &f.slots[idx]
	if !s.used || s.ready || s.inFPU {
		return
	}
	s.ready = true
	f.ready.Push(idx)
}

// NextWork implements sim.Sleeper for the engine's aggregate idleness
// report: the first cycle after now at which a stage of Tick can act.
// In accumulate mode each queue has its own gate — the migration write
// port opens on even cycles, the event handler two cycles after its
// last event, the TCB manager II cycles after its last issue and not
// before IssueFrom, and the FPU pipeline at its head's doneAt (issues
// are in order with equal latency, so the head retires first). Stall
// mode charges the Stalls counter every busy cycle, which forces
// per-cycle stepping until stallBusyUntil.
func (f *FPC) NextWork(now int64) int64 {
	if f.cfg.Mode == ModeStall {
		if now+1 < f.stallBusyUntil || f.incoming.Len() > 0 || f.input.Len() > 0 {
			return now + 1
		}
		return sim.Dormant
	}
	next := sim.Dormant
	if f.incoming.Len() > 0 {
		next = now + 1 + (now+1)%2
	}
	if f.input.Len() > 0 {
		next = min(next, f.lastHandle+2)
	}
	if f.ready.Len() > 0 {
		next = min(next, f.issueAt())
	}
	if f.pipe.Len() > 0 {
		next = min(next, f.pipe.AtPtr(0).doneAt)
	}
	return max(next, now+1)
}

// issueAt is the TCB manager's gate, shared by issue and NextWork: the
// initiation interval since the last issue, and TX backpressure.
func (f *FPC) issueAt() int64 {
	at := f.lastIssue + issueInterval
	if f.cfg.IssueFrom != nil {
		at = max(at, f.cfg.IssueFrom())
	}
	return at
}

// Due reports whether the FPC may have work at cycle: an input made its
// cached next cycle stale, or that cycle has come.
func (f *FPC) Due(cycle int64) bool { return f.stale || f.next <= cycle }

// Next returns the cached NextWork, recomputing it at now when stale.
func (f *FPC) Next(now int64) int64 {
	if f.stale {
		f.next, f.stale = f.NextWork(now), false
	}
	return f.next
}

// Tick advances the FPC one cycle. A due tick refreshes the cached next
// cycle; a tick that is not due (the shadow engine ticks every FPC)
// leaves it alone, since it can change nothing.
func (f *FPC) Tick(cycle int64) {
	due := f.Due(cycle)
	if f.cfg.Mode == ModeStall {
		f.tickStall(cycle)
	} else {
		f.drainIncoming(cycle)
		f.handleEvent(cycle)
		f.complete(cycle)
		f.issue(cycle)
	}
	if due {
		f.next, f.stale = f.NextWork(cycle), false
	}
}

// drainIncoming accepts one migrated TCB per two cycles through the
// dedicated write port.
func (f *FPC) drainIncoming(cycle int64) {
	if cycle%2 != 0 {
		return
	}
	if t, ok := f.incoming.Pop(); ok {
		t.EvictFlag = false
		f.install(t)
		if f.hooks.OnInstall != nil {
			f.hooks.OnInstall(t.FlowID)
		}
	}
}

// handleEvent is the event handler: one event accumulated per two cycles
// (the event table's port schedule, §4.2.3) — 125 M events/s at 250 MHz.
func (f *FPC) handleEvent(cycle int64) {
	if cycle-f.lastHandle < 2 {
		return
	}
	ev, ok := f.input.Peek()
	if !ok {
		return
	}
	idx, resident := f.lookup(ev.Flow)
	if !resident {
		// The scheduler guarantees routing correctness (§4.3.2); a miss
		// here means the flow was freed while the event was in flight.
		f.input.Pop()
		return
	}
	f.input.Pop()
	f.lastHandle = cycle
	s := &f.slots[idx]
	s.row.Accumulate(&ev)
	f.touch(idx, cycle)
	f.EventsHandled.Inc()
	f.markReady(idx)
}

// issue is the TCB manager: every II cycles, construct the next TCB in
// round-robin order (merge valid event-table fields, clear valid bits)
// and push it into the FPU pipeline. A flow already in the FPU is never
// reissued, which preserves RMW atomicity without stalls (§4.2.2).
func (f *FPC) issue(cycle int64) {
	if f.ready.Len() == 0 || f.issueAt() > cycle {
		return // II not elapsed, or TX backpressure: keep accumulating (§5.1)
	}
	for {
		i, ok := f.ready.Pop()
		if !ok {
			return
		}
		s := &f.slots[i]
		s.ready = false
		if !s.used || s.inFPU || (s.row.Empty() && s.tcb.In.Valid == 0 && !s.evict) {
			continue // stale entry (slot freed, reissued, or drained)
		}
		s.row.MergeInto(s.tcb)
		s.inFPU = true
		f.pipe.Push(inflight{idx: i, doneAt: cycle + int64(f.cfg.FPULatency)})
		f.lastIssue = cycle
		return
	}
}

// complete retires FPU passes whose pipeline latency has elapsed: run the
// stateless processing function, hand the actions to the engine, and let
// the evict checker intercept flagged TCBs (§4.3.2).
func (f *FPC) complete(cycle int64) {
	for {
		head, ok := f.pipe.Peek()
		if !ok || head.doneAt > cycle {
			return
		}
		f.pipe.Pop()
		s := &f.slots[head.idx]
		t := s.tcb
		f.actions.Reset()
		tcpproc.Process(t, f.cfg.Alg, f.cfg.Proto, f.k.NowNS(), &f.actions)
		f.Processed.Inc()
		if f.trc != nil {
			f.tracePass(head.doneAt, int64(t.FlowID))
		}
		s.inFPU = false
		if f.hooks.OnActions != nil {
			f.hooks.OnActions(t, &f.actions)
		}
		if f.actions.FreeFlow {
			wasEvict := s.evict
			f.remove(head.idx)
			if wasEvict && f.hooks.OnEvictAbort != nil {
				f.hooks.OnEvictAbort(t.FlowID)
			}
			continue
		}
		if s.evict {
			// Events handled into the event table while the final pass
			// was in flight travel with the TCB (§4.3.2: no event loss).
			if !s.row.Empty() {
				s.row.MergeInto(t)
			}
			f.remove(head.idx)
			if f.hooks.OnEvict != nil {
				f.hooks.OnEvict(t)
			}
			continue
		}
		// Events accumulated while the pass was in flight re-arm the slot.
		if !s.row.Empty() {
			f.markReady(head.idx)
		}
	}
}

// remove frees a slot and its CAM entry. Pending handled-but-unprocessed
// events were merged in the final pass, so nothing is lost (§4.3.2).
func (f *FPC) remove(idx int) {
	s := &f.slots[idx]
	if id := s.tcb.FlowID; f.cam.Get(id) != 0 {
		f.cam.Clear(id)
		f.flows--
	}
	*s = slot{}
	f.age[idx] = ageNever
	f.free[idx/64] |= 1 << (idx % 64)
}

// touch records an event handled into slot idx at cycle: the slot's age
// for victim selection (a slot already marked for eviction stays out of
// it) and the TCB's own activity stamp.
func (f *FPC) touch(idx int, cycle int64) {
	if !f.slots[idx].evict {
		f.age[idx] = cycle
	}
	f.slots[idx].tcb.LastActive = cycle
}

// tickStall is the baseline design: each event is an atomic RMW that
// occupies the unit for StallNum/StallDen cycles; events of any flow wait
// behind it (§3.1).
func (f *FPC) tickStall(cycle int64) {
	f.drainIncoming(cycle)
	if cycle < f.stallBusyUntil {
		f.Stalls.Inc()
		return
	}
	ev, ok := f.input.Pop()
	if !ok {
		return
	}
	idx, resident := f.lookup(ev.Flow)
	if !resident {
		return
	}
	s := &f.slots[idx]
	var row flow.EventRow
	row.Accumulate(&ev)
	row.MergeInto(s.tcb)
	f.EventsHandled.Inc()
	f.touch(idx, cycle)

	f.actions.Reset()
	tcpproc.Process(s.tcb, f.cfg.Alg, f.cfg.Proto, f.k.NowNS(), &f.actions)
	f.Processed.Inc()
	if f.hooks.OnActions != nil {
		f.hooks.OnActions(s.tcb, &f.actions)
	}
	if f.actions.FreeFlow {
		wasEvict := s.evict
		id := s.tcb.FlowID
		f.remove(idx)
		if wasEvict && f.hooks.OnEvictAbort != nil {
			f.hooks.OnEvictAbort(id)
		}
	} else if s.evict {
		t := s.tcb
		f.remove(idx)
		if f.hooks.OnEvict != nil {
			f.hooks.OnEvict(t)
		}
	}

	// Occupy the unit for the (possibly fractional) stall period.
	total := f.cfg.StallNum + f.stallFrac
	whole := total / f.cfg.StallDen
	f.stallFrac = total % f.cfg.StallDen
	if whole < 1 {
		whole = 1
	}
	f.stallBusyUntil = cycle + whole
}

// String summarizes occupancy.
func (f *FPC) String() string {
	return fmt.Sprintf("fpc{flows=%d/%d in=%d pipe=%d}", f.flows, f.cfg.Slots, f.input.Len(), f.pipe.Len())
}
