// Package sched models the F4T scheduler (§4.3.2, §4.4): the partitioned
// location LUT that tracks where every flow's TCB lives, the four
// 16-entry coalesce FIFOs that merge events of the same flow before
// routing (§4.4.1), the pending queue with 12-cycle retry for events
// whose flow is mid-migration, and the migration engine that moves TCBs
// between FPCs and DRAM (including FPC→FPC load-balancing moves).
package sched

import (
	"f4t/internal/engine/fpc"
	"f4t/internal/engine/memmgr"
	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// Location states in the LUT.
type locKind uint8

const (
	locFree locKind = iota
	locFPC
	locDRAM
	locMoving
)

// lutEntry is one row of the location LUT: everything the scheduler
// keeps per flow, in one 8-byte record indexed by flow ID. The zero entry
// is a free flow with nothing queued.
type lutEntry struct {
	kind       locKind
	fpc        int8   // kind == locFPC: the FPC holding the TCB
	mig        int8   // migration in flight: 0 none, toDRAM, or toFPC(target)
	swapQueued bool   // a swap-in request is queued (dedupe: at most one per flow)
	pending    uint32 // events in the pending queue (order guard)
}

// Migration targets as stored in lutEntry.mig. Every FPC-bound migration
// holds a slot reservation at its target.
const toDRAM int8 = -1

func toFPC(i int) int8 { return int8(i + 1) }

// reservation returns the FPC at which the flow's in-flight migration
// holds a slot reservation, if it is FPC-bound.
func (e lutEntry) reservation() (fpc int, held bool) {
	return int(e.mig) - 1, e.mig > 0
}

// pendingEv is an event waiting out a migration (§4.3.2).
type pendingEv struct {
	ev      flow.Event
	retryAt int64
}

// retryCycles is the pending-queue retry interval (§4.3.2: "retries the
// routing after 12 cycles").
const retryCycles = 12

// The reference design's coalesce stage (§4.4.1): four FIFOs of 16
// entries.
const (
	coalesceFIFOs = 4
	fifoDepth     = 16
)

// Scheduler orchestrates all flows (§4.1.2 ④).
type Scheduler struct {
	k    *sim.Kernel
	fpcs []*fpc.FPC
	mem  *memmgr.Manager

	coalesce  bool // event coalescing enable (off for the 1FPC ablation)
	lutGroups int  // location LUT partitions = routes per cycle (§4.4.2)

	lut     flow.Table[lutEntry]
	fifos   []*sim.Queue[flow.Event]
	pending *sim.Queue[pendingEv]

	inFlight  int // LUT entries with a migration recorded
	swapReqs  *sim.Queue[flow.ID]
	evictBusy []bool // one outstanding eviction per FPC
	// acceptFn delivers a swapped-in TCB to its target FPC when the DRAM
	// read completes; pre-bound so a swap-in schedules no closure.
	acceptFn func(any)

	// Stats.
	Routed        sim.Counter
	Coalesced     sim.Counter
	Backpressure  sim.Counter
	Migrations    sim.Counter
	SwapIns       sim.Counter
	DroppedEvents sim.Counter
}

// New builds a scheduler over the given FPCs and memory manager, with
// event coalescing on or off. The LUT has one partition per two FPCs:
// one route per two-cycle FPC slot (§4.4.2).
func New(k *sim.Kernel, coalesce bool, fpcs []*fpc.FPC, mem *memmgr.Manager) *Scheduler {
	s := &Scheduler{
		k:         k,
		fpcs:      fpcs,
		mem:       mem,
		coalesce:  coalesce,
		lutGroups: (len(fpcs) + 1) / 2,
		fifos:     make([]*sim.Queue[flow.Event], coalesceFIFOs),
		pending:   sim.NewQueue[pendingEv](0),
		swapReqs:  sim.NewQueue[flow.ID](0),
		evictBusy: make([]bool, len(fpcs)),
	}
	for i := range s.fifos {
		s.fifos[i] = sim.NewQueue[flow.Event](fifoDepth)
	}
	// The reservation taken in processSwapIns guarantees capacity. The
	// target travels in the TCB, not the LUT, so the TCB still lands where
	// its slot was reserved if FlowFreed clears the entry mid-move.
	s.acceptFn = func(arg any) {
		t := arg.(*flow.TCB)
		s.fpcs[t.SwapTo].AcceptTCB(t)
	}
	return s
}

// place records a flow's location; the migration record, swap-request
// bit and pending count in the same LUT entry are left alone.
func (s *Scheduler) place(id flow.ID, kind locKind, fpc int) {
	e := s.lut.At(id)
	e.kind, e.fpc = kind, int8(fpc)
}

// beginMigration records the flow's migration in flight (toDRAM or
// toFPC(target)).
func (s *Scheduler) beginMigration(id flow.ID, target int8) {
	e := s.lut.At(id)
	if e.mig == 0 {
		s.inFlight++
	}
	e.mig = target
}

// endMigration clears the flow's migration record, if any.
func (s *Scheduler) endMigration(id flow.ID) {
	if e := s.lut.At(id); e.mig != 0 {
		s.inFlight--
		e.mig = 0
	}
}

// Location reports where a flow currently lives (testing/diagnostics).
func (s *Scheduler) Location(id flow.ID) (inFPC bool, fpcIdx int, inDRAM, moving bool) {
	e := s.lut.Get(id)
	switch e.kind {
	case locFPC:
		return true, int(e.fpc), false, false
	case locDRAM:
		return false, 0, true, false
	case locMoving:
		return false, 0, false, true
	}
	return false, 0, false, false
}

// AllocateFlow places a new flow: the FPC with the lowest flow count
// (§4.4.2), or DRAM when every FPC is full.
func (s *Scheduler) AllocateFlow(t *flow.TCB) {
	best := -1
	bestCount := 1 << 30
	for i, f := range s.fpcs {
		if f.HasSlot() && f.FlowCount() < bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best >= 0 && s.fpcs[best].InstallNew(t) {
		s.place(t.FlowID, locFPC, best)
		return
	}
	s.mem.Insert(t)
	s.place(t.FlowID, locDRAM, 0)
}

// FlowFreed clears a terminated flow's location and migration record, so
// a reused ID starts from a free entry. The swap-request bit and pending
// count describe entries still sitting in their queues and clear when
// those drain.
func (s *Scheduler) FlowFreed(id flow.ID) {
	e := s.lut.Get(id)
	if e.kind == locDRAM {
		s.mem.Drop(id)
	}
	if fpc, held := e.reservation(); held {
		s.fpcs[fpc].ReleaseReservation()
	}
	s.place(id, locFree, 0)
	s.endMigration(id)
}

// Submit pushes one event into the coalesce stage. It reports false when
// the flow's FIFO is full (backpressure to the host interface / RX
// parser / timer module, which hold their own queues).
func (s *Scheduler) Submit(ev flow.Event) bool {
	idx := int(uint64(ev.Flow) % uint64(len(s.fifos)))
	q := s.fifos[idx]
	if s.coalesce && ev.Coalescable {
		// Index-based scan: a Scan closure capturing ev would force the
		// event to escape on every submit, and this is the engine's
		// per-segment hot path.
		for i, n := 0, q.Len(); i < n; i++ {
			e := q.AtPtr(i)
			if e.Flow == ev.Flow && e.Coalescable && e.Kind == ev.Kind {
				coalesceInto(e, &ev)
				s.Coalesced.Inc()
				return true
			}
		}
	}
	return q.Push(ev)
}

// coalesceInto merges src into dst using the same lossless rules as the
// event handler (§4.4.1): cumulative pointers take the newest value.
func coalesceInto(dst, src *flow.Event) {
	switch src.Kind {
	case flow.EvUser:
		if src.HasReq {
			dst.HasReq, dst.Req = true, src.Req
		}
		if src.HasRead {
			dst.HasRead, dst.AppRead = true, src.AppRead
		}
		dst.Ctl |= src.Ctl
	case flow.EvRx:
		if src.HasAck {
			dst.HasAck, dst.Ack = true, src.Ack
		}
		if src.HasWnd {
			dst.HasWnd, dst.Wnd = true, src.Wnd
		}
		if src.HasData {
			dst.HasData, dst.RcvData = true, src.RcvData
		}
	case flow.EvTimeout:
		dst.Timeouts |= src.Timeouts
	}
}

// SubmitSpace reports whether the flow's FIFO can take another event.
func (s *Scheduler) SubmitSpace(id flow.ID) bool {
	return !s.fifos[int(uint64(id)%uint64(len(s.fifos)))].Full()
}

// RequestSwapIn is the memory manager's check-logic signal (§4.3.1).
// Requests dedupe per flow: the check logic fires per handled event, but
// one pending swap-in per flow suffices.
func (s *Scheduler) RequestSwapIn(id flow.ID) {
	e := s.lut.At(id)
	if e.swapQueued {
		return
	}
	e.swapQueued = true
	s.swapReqs.Push(id)
}

// NextWork implements sim.Sleeper for the engine's aggregate idleness
// report: routing and swap-in servicing act immediately on non-empty
// queues; the pending queue acts at its head's retry deadline (entries
// are pushed with monotonically nondecreasing retryAt, so the head is
// the minimum). Migrations in flight land via kernel timers into FPC
// incoming queues, which report their own work.
func (s *Scheduler) NextWork(now int64) int64 {
	if !s.idleAt(now + 1) {
		return now + 1
	}
	if s.pending.Len() > 0 {
		return s.pending.AtPtr(0).retryAt
	}
	return sim.Dormant
}

// idleAt is the one statement of scheduler idleness, shared by NextWork
// and Tick: nothing to route, no swap-in to service, and the pending
// queue's head not yet due at cycle.
func (s *Scheduler) idleAt(cycle int64) bool {
	for _, q := range s.fifos {
		if q.Len() > 0 {
			return false
		}
	}
	return s.swapReqs.Len() == 0 &&
		(s.pending.Len() == 0 || s.pending.AtPtr(0).retryAt > cycle)
}

// Tick advances routing, pending retries and migrations.
func (s *Scheduler) Tick(cycle int64) {
	// Event-driven dispatch: when idle, each stage below is a no-op
	// (route and processSwapIns see empty queues, retryPending's head
	// deadline has not come).
	if s.idleAt(cycle) {
		return
	}
	s.route(cycle)
	s.retryPending(cycle)
	s.processSwapIns(cycle)
}

// route pops up to one event per coalesce FIFO per cycle — the
// partitioned-LUT routing bandwidth of §4.4.2 — and forwards each to its
// flow's current location.
func (s *Scheduler) route(cycle int64) {
	routes := 0
	for _, q := range s.fifos {
		if routes >= s.lutGroups {
			break
		}
		if q.Len() == 0 {
			continue
		}
		ev := *q.AtPtr(0)
		loc := s.lut.Get(ev.Flow)
		// Order guard: a flow with events already waiting in the pending
		// queue must not have later events overtake them.
		if loc.pending > 0 {
			q.Pop()
			s.toPending(ev, cycle)
			routes++
			continue
		}
		switch loc.kind {
		case locFPC:
			if s.fpcs[loc.fpc].EnqueueEvent(ev) {
				q.Pop()
				s.Routed.Inc()
				routes++
			} else {
				// Congested FPC: head-of-line wait, plus a load-balancing
				// migration of this flow to the idlest FPC (§4.4.2).
				s.Backpressure.Inc()
				s.maybeRebalance(ev.Flow, int(loc.fpc))
			}
		case locDRAM:
			if s.mem.EnqueueEvent(ev) {
				q.Pop()
				s.Routed.Inc()
				routes++
			}
		case locMoving:
			q.Pop()
			s.toPending(ev, cycle)
			routes++
		default: // freed flow: event has nowhere to go
			q.Pop()
			s.DroppedEvents.Inc()
			routes++
		}
	}
}

func (s *Scheduler) toPending(ev flow.Event, cycle int64) {
	s.pending.Push(pendingEv{ev: ev, retryAt: cycle + retryCycles})
	s.lut.At(ev.Flow).pending++
}

// retryPending re-routes events whose retry interval elapsed (§4.3.2).
func (s *Scheduler) retryPending(cycle int64) {
	for i := 0; i < 4; i++ { // a few retries per cycle
		pe, ok := s.pending.Peek()
		if !ok || pe.retryAt > cycle {
			return
		}
		ev := pe.ev
		loc := s.lut.At(ev.Flow)
		switch loc.kind {
		case locFPC:
			if !s.fpcs[loc.fpc].EnqueueEvent(ev) {
				return // destination congested: hold position, retry later
			}
		case locDRAM:
			if !s.mem.EnqueueEvent(ev) {
				return
			}
		case locMoving:
			// Still migrating: recycle to the tail with a fresh deadline.
			s.pending.Pop()
			s.pending.Push(pendingEv{ev: ev, retryAt: cycle + retryCycles})
			return
		default:
			s.pending.Pop()
			loc.pending--
			s.DroppedEvents.Inc()
			continue
		}
		s.pending.Pop()
		loc.pending--
		s.Routed.Inc()
	}
}

// maybeRebalance migrates a flow away from a congested FPC to the idlest
// one (§4.4.2). At most one eviction per FPC is in flight.
func (s *Scheduler) maybeRebalance(id flow.ID, from int) {
	if s.evictBusy[from] {
		return
	}
	best, bestCount := -1, 1<<30
	for i, f := range s.fpcs {
		if i != from && f.HasSlot() && f.FlowCount() < bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best < 0 {
		return
	}
	if !s.fpcs[best].ReserveSlot() {
		return
	}
	s.startMigration(id, from, toFPC(best))
}

// processSwapIns services check-logic requests: extract the TCB from
// DRAM and push it into the chosen FPC, evicting a cold flow first when
// every FPC is full (§4.3.2). Blocked-but-valid requests recycle to the
// tail so stale entries behind them still drain.
func (s *Scheduler) processSwapIns(cycle int64) {
	for i := 0; i < 4; i++ {
		id, ok := s.swapReqs.Pop()
		if !ok {
			return
		}
		e := s.lut.At(id)
		e.swapQueued = false
		if e.kind != locDRAM || !s.mem.Has(id) {
			continue // already moved or freed
		}
		best, bestCount := -1, 1<<30
		for j, f := range s.fpcs {
			if f.HasSlot() && f.FlowCount() < bestCount {
				best, bestCount = j, f.FlowCount()
			}
		}
		if best < 0 || !s.fpcs[best].ReserveSlot() {
			// Every FPC full: make room by evicting a cold flow, recycle
			// the request to the tail, and retry later.
			e.swapQueued = true
			s.swapReqs.Push(id)
			s.makeRoom()
			return
		}
		s.SwapIns.Inc()
		s.place(id, locMoving, 0)
		s.beginMigration(id, toFPC(best))
		// Has(id) held above and nothing since touched the TCB store, so
		// the extract finds the flow.
		tcb, readyAt, _ := s.mem.Extract(id)
		tcb.SwapTo = int8(best)
		s.k.AtCall(readyAt, s.acceptFn, tcb)
	}
}

// makeRoom evicts the coldest flow from the FPC with no eviction in
// flight (picking the fullest such FPC).
func (s *Scheduler) makeRoom() {
	best, bestCount := -1, -1
	for i, f := range s.fpcs {
		if !s.evictBusy[i] && f.FlowCount() > bestCount {
			best, bestCount = i, f.FlowCount()
		}
	}
	if best < 0 {
		return
	}
	victim := s.fpcs[best].ColdestFlow()
	if victim == flow.NoFlow {
		return
	}
	s.startMigration(victim, best, toDRAM)
}

// startMigration sets the moving state and the evict flag (§4.3.2: both
// at the same time, which blocks routing of new input events).
func (s *Scheduler) startMigration(id flow.ID, from int, target int8) {
	if s.lut.Get(id).kind != locFPC {
		return
	}
	if !s.fpcs[from].RequestEvict(id) {
		return
	}
	s.Migrations.Inc()
	s.evictBusy[from] = true
	s.beginMigration(id, target)
	s.place(id, locMoving, 0)
}

// Evicted receives a TCB captured by an FPC's evict checker and forwards
// it to its migration target.
func (s *Scheduler) Evicted(from int, t *flow.TCB) {
	s.evictBusy[from] = false
	target, fpcBound := s.lut.Get(t.FlowID).reservation()
	if !fpcBound {
		s.endMigration(t.FlowID)
		s.mem.Insert(t)
		s.place(t.FlowID, locDRAM, 0)
		// Events that were handled during the eviction window travel with
		// the TCB; the check logic decides whether they warrant a swap
		// back in (§4.3.1) — a bare window update does not.
		if tcpproc.Actionable(t) {
			s.RequestSwapIn(t.FlowID)
		}
		return
	}
	// FPC→FPC rebalancing move; the reservation guarantees capacity.
	if s.fpcs[target].AcceptTCB(t) {
		return // Installed() will finalize
	}
	s.endMigration(t.FlowID)
	s.mem.Insert(t)
	s.place(t.FlowID, locDRAM, 0)
}

// EvictAborted releases an eviction slot whose flow terminated during
// its final FPU pass, returning any reservation held at the target.
func (s *Scheduler) EvictAborted(from int, id flow.ID) {
	s.evictBusy[from] = false
	if fpc, held := s.lut.Get(id).reservation(); held {
		s.fpcs[fpc].ReleaseReservation()
	}
	s.endMigration(id)
}

// Installed is the FPC's signal that a migrated TCB landed in its table;
// the LUT flips to the new location and routing resumes (§4.3.2).
func (s *Scheduler) Installed(fpcIdx int, id flow.ID) {
	s.endMigration(id)
	s.place(id, locFPC, fpcIdx)
}

// PendingEvents returns the pending-queue depth (bounded-queue invariant
// checks in tests).
func (s *Scheduler) PendingEvents() int { return s.pending.Len() }
