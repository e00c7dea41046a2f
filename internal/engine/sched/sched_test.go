package sched

import (
	"testing"

	"f4t/internal/cc"
	"f4t/internal/engine/fpc"
	"f4t/internal/engine/memmgr"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

type rig struct {
	k    *sim.Kernel
	s    *Scheduler
	fpcs []*fpc.FPC
	mem  *memmgr.Manager
	// freed collects flows whose final FPU pass terminated them; the rig
	// tells the scheduler first, as the engine's applyActions does.
	freed []flow.ID
}

func newRig(numFPCs, slots int) *rig {
	k := sim.New()
	proto := tcpproc.DefaultConfig()
	alg := cc.MustNew("newreno")
	r := &rig{k: k}
	r.mem = memmgr.New(k, memmgr.DefaultConfig(memmgr.HBM), memmgr.Hooks{
		OnSwapInRequest: func(id flow.ID) { r.s.RequestSwapIn(id) },
	})
	for i := 0; i < numFPCs; i++ {
		idx := i
		f := fpc.New(k, fpc.Config{Slots: slots, Alg: alg, Proto: &proto}, fpc.Hooks{
			OnActions: func(t *flow.TCB, a *tcpproc.Actions) {
				if a.FreeFlow {
					r.s.FlowFreed(t.FlowID)
					r.freed = append(r.freed, t.FlowID)
				}
			},
			OnEvict:      func(t *flow.TCB) { r.s.Evicted(idx, t) },
			OnInstall:    func(id flow.ID) { r.s.Installed(idx, id) },
			OnEvictAbort: func(id flow.ID) { r.s.EvictAborted(idx, id) },
		})
		r.fpcs = append(r.fpcs, f)
	}
	r.s = New(k, true, r.fpcs, r.mem)
	k.Register(sim.TickerFunc(func(c int64) {
		r.s.Tick(c)
		for _, f := range r.fpcs {
			f.Tick(c)
		}
		r.mem.Tick(c)
	}))
	return r
}

// rst is an in-window reset: the flow's next FPU pass terminates it.
func rst(id flow.ID) flow.Event {
	return flow.Event{Kind: flow.EvRx, Flow: id, RxFlags: flow.RxRST, RstSeq: 5001}
}

// checkSettled asserts that no migration state is left anywhere: no
// record in flight, no reservation held, no eviction slot busy.
func (r *rig) checkSettled(t *testing.T) {
	t.Helper()
	if r.s.inFlight != 0 {
		t.Fatalf("%d migration records still in flight", r.s.inFlight)
	}
	for i, f := range r.fpcs {
		if f.Reserved() != 0 || f.IncomingLen() != 0 || f.EvictsPending() != 0 || r.s.evictBusy[i] {
			t.Fatalf("fpc %d: reserved=%d incoming=%d evicting=%d evictBusy=%v", i, f.Reserved(), f.IncomingLen(), f.EvictsPending(), r.s.evictBusy[i])
		}
	}
}

func estTCB(id flow.ID) *flow.TCB {
	t := &flow.TCB{
		FlowID: id, State: flow.StateEstablished,
		ISS: 1000, SndUna: 1001, SndNxt: 1001, Req: 1001,
		IRS: 5000, RcvNxt: 5001, AppRead: 5001, DeliveredTo: 5001, LastAckSent: 5001,
		RcvBuf: 1 << 19, SndWnd: 1 << 20,
	}
	t.Cwnd = 1 << 20
	t.AckedToHost = 1001
	return t
}

func TestAllocateSpreadsByFlowCount(t *testing.T) {
	r := newRig(4, 8)
	for i := 0; i < 8; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	for i, f := range r.fpcs {
		if f.FlowCount() != 2 {
			t.Fatalf("fpc %d has %d flows, want 2", i, f.FlowCount())
		}
	}
}

func TestAllocateOverflowsToDRAM(t *testing.T) {
	r := newRig(1, 4)
	for i := 0; i < 10; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	if r.fpcs[0].FlowCount() != 4 || r.mem.FlowCount() != 6 {
		t.Fatalf("placement: fpc=%d dram=%d", r.fpcs[0].FlowCount(), r.mem.FlowCount())
	}
	inFPC, _, inDRAM, _ := r.s.Location(9)
	if inFPC || !inDRAM {
		t.Fatal("overflow flow not recorded as DRAM-resident")
	}
}

func TestRoutingReachesFPCAndDRAM(t *testing.T) {
	r := newRig(1, 2)
	r.s.AllocateFlow(estTCB(1)) // FPC
	r.s.AllocateFlow(estTCB(2)) // FPC
	r.s.AllocateFlow(estTCB(3)) // DRAM
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1101})
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 3, HasWnd: true, Wnd: 9}) // wnd-only: not actionable
	r.k.Run(300)
	if r.fpcs[0].EventsHandled.Total() != 1 {
		t.Fatalf("FPC handled %d", r.fpcs[0].EventsHandled.Total())
	}
	if r.mem.Handled.Total() != 1 {
		t.Fatalf("DRAM handled %d", r.mem.Handled.Total())
	}
}

func TestCoalescingMergesSameFlowUserEvents(t *testing.T) {
	r := newRig(1, 4)
	r.s.AllocateFlow(estTCB(1))
	// Submit many user requests back-to-back before any routing tick.
	req := seqnum.Value(1001)
	for i := 0; i < 10; i++ {
		req = req.Add(100)
		ok := r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: req, Coalescable: true})
		if !ok {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if r.s.Coalesced.Total() != 9 {
		t.Fatalf("coalesced = %d, want 9", r.s.Coalesced.Total())
	}
	r.k.Run(300)
	// One routed event carrying the final pointer.
	if r.fpcs[0].EventsHandled.Total() != 1 {
		t.Fatalf("events handled = %d, want 1", r.fpcs[0].EventsHandled.Total())
	}
}

func TestCoalescingRespectsLossiness(t *testing.T) {
	r := newRig(1, 4)
	r.s.AllocateFlow(estTCB(1))
	// Dup-acks must never merge (information loss).
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 1, IsDupAck: true})
	r.s.Submit(flow.Event{Kind: flow.EvRx, Flow: 1, IsDupAck: true})
	if r.s.Coalesced.Total() != 0 {
		t.Fatal("lossy events coalesced")
	}
}

func TestCoalescingDisabledByConfig(t *testing.T) {
	k := sim.New()
	proto := tcpproc.DefaultConfig()
	alg := cc.MustNew("newreno")
	mem := memmgr.New(k, memmgr.DefaultConfig(memmgr.HBM), memmgr.Hooks{})
	f := fpc.New(k, fpc.Config{Slots: 4, Alg: alg, Proto: &proto}, fpc.Hooks{})
	s := New(k, false, []*fpc.FPC{f}, mem)
	s.AllocateFlow(estTCB(1))
	s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1101, Coalescable: true})
	s.Submit(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1201, Coalescable: true})
	if s.Coalesced.Total() != 0 {
		t.Fatal("coalescing ran while disabled")
	}
}

func TestSwapInAfterActionableEvent(t *testing.T) {
	r := newRig(1, 2)
	for i := 0; i < 5; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	// Flow 4 lives in DRAM; a sendable request must pull it into the FPC.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 4, HasReq: true, Req: 1101, Coalescable: true})
	ok := r.k.RunUntil(func() bool {
		inFPC, _, _, _ := r.s.Location(4)
		return inFPC && r.fpcs[0].Has(4)
	}, 50_000)
	if !ok {
		t.Fatalf("flow 4 never swapped in (migrations=%d swapins=%d)", r.s.Migrations.Total(), r.s.SwapIns.Total())
	}
	// Something was evicted to make room.
	if r.s.Migrations.Total() == 0 {
		t.Fatal("no eviction happened for the swap-in")
	}
	if r.fpcs[0].FlowCount() != 2 {
		t.Fatalf("FPC overfull: %d", r.fpcs[0].FlowCount())
	}
}

func TestMovingStateBlocksRoutingButLosesNothing(t *testing.T) {
	r := newRig(1, 2)
	for i := 0; i < 3; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	// Trigger the swap-in of flow 2 (in DRAM) and immediately submit
	// more events for it: they must be held and delivered in order.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1101, Coalescable: true})
	r.k.Run(30)
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1201, Coalescable: true})
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1301, Coalescable: true})
	ok := r.k.RunUntil(func() bool {
		if !r.fpcs[0].Has(2) {
			return false
		}
		// All three requests eventually reach the TCB: the final REQ
		// pointer must be the newest.
		return r.s.PendingEvents() == 0
	}, 100_000)
	if !ok {
		t.Fatal("pending events never drained")
	}
	r.k.Run(1000)
	if r.s.DroppedEvents.Total() != 0 {
		t.Fatalf("events dropped during migration: %d", r.s.DroppedEvents.Total())
	}
}

func TestFlowFreedClearsEverything(t *testing.T) {
	r := newRig(1, 2)
	r.s.AllocateFlow(estTCB(1))
	r.s.AllocateFlow(estTCB(2))
	r.s.AllocateFlow(estTCB(3)) // DRAM
	r.s.FlowFreed(3)
	if r.mem.Has(3) {
		t.Fatal("freed DRAM flow kept state")
	}
	inFPC, _, inDRAM, moving := r.s.Location(3)
	if inFPC || inDRAM || moving {
		t.Fatal("LUT entry survived the free")
	}
	// Events to the freed flow are dropped, not looped.
	r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 3, HasReq: true, Req: 1101})
	r.k.Run(100)
	if r.s.DroppedEvents.Total() != 1 {
		t.Fatalf("dropped = %d", r.s.DroppedEvents.Total())
	}
}

// TestFlowFreedMidMigration terminates a flow while its eviction is in
// flight — to DRAM, and to another FPC holding a slot reservation — and
// hands the ID straight to a new flow: the whole LUT entry must read as
// free in between (what the deleted map keys read as), the reservation
// must return exactly once, and the new flow must route normally.
func TestFlowFreedMidMigration(t *testing.T) {
	for _, target := range []int8{toDRAM, toFPC(1)} {
		r := newRig(2, 2)
		for id := flow.ID(0); id < 3; id++ { // 0 and 2 on FPC 0, 1 on FPC 1
			r.s.AllocateFlow(estTCB(id))
		}
		if inFPC, at, _, _ := r.s.Location(0); !inFPC || at != 0 {
			t.Fatalf("flow 0 not on fpc 0")
		}
		if target != toDRAM && !r.fpcs[1].ReserveSlot() { // as maybeRebalance does
			t.Fatal("no slot to reserve at the target")
		}
		r.s.startMigration(0, 0, target)
		if _, _, _, moving := r.s.Location(0); !moving || r.s.inFlight != 1 || !r.s.evictBusy[0] {
			t.Fatalf("target %d: migration did not start: %+v", target, r.s.lut.Get(0))
		}
		// The reset reaches the FPC ahead of the flow's final pass (routing
		// is blocked while moving, so it goes in directly).
		r.fpcs[0].EnqueueEvent(rst(0))
		r.k.Run(200)
		if len(r.freed) != 1 || r.freed[0] != 0 {
			t.Fatalf("target %d: freed = %v", target, r.freed)
		}
		if got := r.s.lut.Get(0); got != (lutEntry{}) {
			t.Fatalf("target %d: freed flow's LUT entry = %+v, want zero", target, got)
		}
		if r.fpcs[0].Has(0) || r.mem.Has(0) {
			t.Fatalf("target %d: freed flow still resident", target)
		}
		r.checkSettled(t)

		// Same ID, new flow: lands on the emptier FPC 0 and routes.
		r.s.AllocateFlow(estTCB(0))
		r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: 0, HasReq: true, Req: 1101})
		r.k.Run(200)
		if inFPC, at, _, _ := r.s.Location(0); !inFPC || at != 0 || !r.fpcs[0].Has(0) {
			t.Fatalf("target %d: reallocated flow misplaced: %+v", target, r.s.lut.Get(0))
		}
		if r.s.Routed.Total() != 1 || r.s.DroppedEvents.Total() != 0 || r.s.PendingEvents() != 0 {
			t.Fatalf("target %d: routed=%d dropped=%d pending=%d", target, r.s.Routed.Total(), r.s.DroppedEvents.Total(), r.s.PendingEvents())
		}
		r.checkSettled(t)
	}
}

// TestFlowFreedWithSwapRequestQueued frees a DRAM flow whose swap-in
// request is still queued and reallocates the ID: the request bit outlives
// the free until its queue entry drains (so the new flow's own request
// dedupes against it), and the stale entry then serves the new flow.
func TestFlowFreedWithSwapRequestQueued(t *testing.T) {
	r := newRig(1, 2)
	for id := flow.ID(1); id <= 3; id++ { // 1, 2 on the FPC; 3 in DRAM
		r.s.AllocateFlow(estTCB(id))
	}
	r.s.RequestSwapIn(3)
	r.s.FlowFreed(3)
	if got := r.s.lut.Get(3); got != (lutEntry{swapQueued: true}) {
		t.Fatalf("after free: %+v, want only the queued-request bit", got)
	}
	if r.mem.Has(3) {
		t.Fatal("freed DRAM flow kept state")
	}

	fresh := estTCB(3)
	r.s.AllocateFlow(fresh) // FPC full: DRAM again
	r.s.RequestSwapIn(3)
	if r.s.swapReqs.Len() != 1 {
		t.Fatalf("%d swap requests queued for one flow", r.s.swapReqs.Len())
	}
	ok := r.k.RunUntil(func() bool {
		inFPC, _, _, _ := r.s.Location(3)
		return inFPC
	}, 50_000)
	if !ok || r.s.SwapIns.Total() != 1 {
		t.Fatalf("stale request did not bring the new flow in (swap-ins=%d, lut=%+v)", r.s.SwapIns.Total(), r.s.lut.Get(3))
	}
	r.k.Run(1_000)
	if got := r.s.lut.Get(3); got != (lutEntry{kind: locFPC}) {
		t.Fatalf("settled entry = %+v", got)
	}
	r.checkSettled(t)

	// A request whose flow is gone by the time it is served just drains.
	evicted := flow.ID(1) // whichever of 1, 2 made room for 3
	if r.mem.Has(2) {
		evicted = 2
	}
	if !r.mem.Has(evicted) {
		t.Fatal("nothing was evicted to DRAM")
	}
	r.s.RequestSwapIn(evicted)
	r.s.FlowFreed(evicted)
	r.k.Run(1_000)
	if got := r.s.lut.Get(evicted); got != (lutEntry{}) {
		t.Fatalf("drained entry = %+v, want zero", got)
	}
	if r.s.SwapIns.Total() != 1 || r.s.swapReqs.Len() != 0 {
		t.Fatalf("stale request for a freed flow was served (swap-ins=%d, queued=%d)", r.s.SwapIns.Total(), r.s.swapReqs.Len())
	}
}

func TestReservationAccountingUnderChurn(t *testing.T) {
	// Sustained swap-in pressure must not leak reservations: the FPC's
	// flow count plus free slots must stay consistent. The second row
	// also terminates flows wherever they are — resident, in DRAM, mid-move,
	// events pending — and reuses each ID at once.
	t.Run("swap", func(t *testing.T) { reservationChurn(t, false) })
	t.Run("swap+free", func(t *testing.T) { reservationChurn(t, true) })
}

func reservationChurn(t *testing.T, freeFlows bool) {
	r := newRig(2, 4)
	for i := 0; i < 32; i++ {
		r.s.AllocateFlow(estTCB(flow.ID(i)))
	}
	req := make([]seqnum.Value, 32)
	for i := range req {
		req[i] = 1001
	}
	n, reused := 0, 0
	feeding := true
	r.k.Register(sim.TickerFunc(func(int64) {
		for _, id := range r.freed { // the engine reuses a freed ID first
			r.s.AllocateFlow(estTCB(id))
			req[id] = 1001
			reused++
		}
		r.freed = r.freed[:0]
		if !feeding {
			return
		}
		id := flow.ID(n % 32)
		n++
		if freeFlows && n%97 == 0 {
			r.s.Submit(rst(id))
			return
		}
		req[id] = req[id].Add(10)
		r.s.Submit(flow.Event{Kind: flow.EvUser, Flow: id, HasReq: true, Req: req[id], Coalescable: true})
	}))
	r.k.Run(50_000)
	// Quiesce: in-flight migrations settle, then every flow must be
	// accounted in exactly one place (no reservation or TCB leaks).
	feeding = false
	r.k.Run(20_000)
	total := r.mem.FlowCount()
	for _, f := range r.fpcs {
		total += f.FlowCount()
	}
	if total != 32 {
		for i := flow.ID(0); i < 32; i++ {
			inFPC, fi, inDRAM, moving := r.s.Location(i)
			if !inFPC && !inDRAM {
				t.Logf("flow %d: fpc=%v(%d) dram=%v moving=%v lut=%+v", i, inFPC, fi, inDRAM, moving, r.s.lut.Get(i))
			}
		}
		t.Fatalf("flows accounted after quiesce = %d/32 (pending=%d swapQ=%d)", total, r.s.PendingEvents(), r.s.swapReqs.Len())
	}
	r.checkSettled(t)
	for i := flow.ID(0); i < 32; i++ {
		if e := r.s.lut.Get(i); e.kind != locFPC && e.kind != locDRAM || e.mig != 0 || e.swapQueued || e.pending != 0 {
			t.Fatalf("flow %d not at rest: %+v", i, e)
		}
	}
	if r.s.SwapIns.Total() == 0 || r.s.Migrations.Total() == 0 {
		t.Fatal("no migration churn happened — test ineffective")
	}
	if freeFlows {
		if reused < 100 {
			t.Fatalf("only %d flow IDs reused — test ineffective", reused)
		}
		return // an event can reach a freed ID before its reuse and is dropped
	}
	if r.s.DroppedEvents.Total() != 0 {
		t.Fatalf("events dropped: %d", r.s.DroppedEvents.Total())
	}
}
