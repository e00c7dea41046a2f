package fpc

import (
	"fmt"
	"testing"

	"f4t/internal/cc"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

func newTCB(id flow.ID) *flow.TCB {
	t := &flow.TCB{
		FlowID: id,
		State:  flow.StateEstablished,
		ISS:    1000, SndUna: 1001, SndNxt: 1001, Req: 1001,
		IRS: 5000, RcvNxt: 5001, AppRead: 5001, DeliveredTo: 5001, LastAckSent: 5001,
		RcvBuf: 1 << 19, SndWnd: 1 << 30,
	}
	t.Cwnd = 1 << 30
	t.Ssthresh = 1 << 30
	t.AckedToHost = 1001
	return t
}

type fpcRig struct {
	k    *sim.Kernel
	f    *FPC
	acts []*flow.TCB // TCBs seen by OnActions
	evd  []*flow.TCB // TCBs seen by OnEvict
	inst []flow.ID
}

func newRig(cfg Config) *fpcRig {
	r := &fpcRig{k: sim.New()}
	proto := tcpproc.DefaultConfig()
	if cfg.Alg == nil {
		cfg.Alg = cc.MustNew("newreno")
	}
	if cfg.Proto == nil {
		cfg.Proto = &proto
	}
	r.f = New(r.k, cfg, Hooks{
		OnActions: func(t *flow.TCB, a *tcpproc.Actions) { r.acts = append(r.acts, t) },
		OnEvict:   func(t *flow.TCB) { r.evd = append(r.evd, t) },
		OnInstall: func(id flow.ID) { r.inst = append(r.inst, id) },
	})
	r.k.Register(sim.TickerFunc(r.f.Tick))
	return r
}

// tcb returns a resident flow's TCB through the CAM lookup.
func (r *fpcRig) tcb(t *testing.T, id flow.ID) *flow.TCB {
	t.Helper()
	idx, ok := r.f.lookup(id)
	if !ok {
		t.Fatalf("flow %d not resident", id)
	}
	return r.f.slots[idx].tcb
}

func reqEvent(id flow.ID, req seqnum.Value) flow.Event {
	return flow.Event{Kind: flow.EvUser, Flow: id, HasReq: true, Req: req, Coalescable: true}
}

func TestHandleRateIsOnePerTwoCycles(t *testing.T) {
	// The §4.2.3 port schedule: 125 M events/s at 250 MHz.
	r := newRig(Config{Slots: 128})
	for i := 0; i < 64; i++ {
		r.f.InstallNew(newTCB(flow.ID(i)))
	}
	req := make([]seqnum.Value, 64)
	for i := range req {
		req[i] = 1001
	}
	next := 0
	r.k.Register(sim.TickerFunc(func(int64) {
		for !r.f.input.Full() {
			id := next % 64
			req[id] = req[id].Add(100)
			r.f.EnqueueEvent(reqEvent(flow.ID(id), req[id]))
			next++
		}
	}))
	r.k.Run(2000)
	handled := r.f.EventsHandled.Total()
	// 2000 cycles → at most 1000 events, expect near that.
	if handled < 950 || handled > 1000 {
		t.Fatalf("handled %d events in 2000 cycles, want ~1000", handled)
	}
}

func TestFlowNeverInFPUTwice(t *testing.T) {
	// Atomicity without stalls (§4.2.2): instrument by checking that a
	// long-latency FPU never holds the same flow twice.
	r := newRig(Config{Slots: 8, FPULatency: 50})
	r.f.InstallNew(newTCB(1))
	req := seqnum.Value(1001)
	r.k.Register(sim.TickerFunc(func(int64) {
		for !r.f.input.Full() {
			req = req.Add(10)
			r.f.EnqueueEvent(reqEvent(1, req))
		}
		inPipe := 0
		r.f.pipe.Scan(func(in *inflight) bool {
			if r.f.slots[in.idx].tcb.FlowID == 1 {
				inPipe++
			}
			return true
		})
		if inPipe > 1 {
			t.Fatalf("flow resident in the FPU %d times", inPipe)
		}
	}))
	r.k.Run(1000)
	if r.f.Processed.Total() == 0 {
		t.Fatal("no FPU passes completed")
	}
}

func TestSingleFlowThroughputIndependentOfLatency(t *testing.T) {
	// §4.5: single-flow performance depends only on the handling rate.
	rate := func(latency int) int64 {
		r := newRig(Config{Slots: 8, FPULatency: latency})
		r.f.InstallNew(newTCB(1))
		req := seqnum.Value(1001)
		r.k.Register(sim.TickerFunc(func(int64) {
			for !r.f.input.Full() {
				req = req.Add(10)
				r.f.EnqueueEvent(reqEvent(1, req))
			}
		}))
		r.k.Run(4000)
		return r.f.EventsHandled.Total()
	}
	short, long := rate(4), rate(80)
	if long < short*95/100 {
		t.Fatalf("latency 80 handled %d vs latency 4 handled %d — not latency-independent", long, short)
	}
}

func TestAccumulatedEventsOneFPUPass(t *testing.T) {
	// Many same-flow events between issues collapse into one pass.
	r := newRig(Config{Slots: 8, FPULatency: 40})
	r.f.InstallNew(newTCB(1))
	req := seqnum.Value(1001)
	for i := 0; i < 8; i++ {
		req = req.Add(50)
		r.f.EnqueueEvent(reqEvent(1, req))
	}
	r.k.Run(100) // handle all 8 (16 cycles) + a couple of passes
	handled := r.f.EventsHandled.Total()
	passes := r.f.Processed.Total()
	if handled != 8 {
		t.Fatalf("handled = %d", handled)
	}
	if passes > 3 {
		t.Fatalf("%d FPU passes for 8 accumulated events, want ≤3", passes)
	}
	// All 400 bytes must have been sent despite the batching.
	tcb := r.tcb(t, 1)
	if tcb.SndNxt != seqnum.Value(1001).Add(400) {
		t.Fatalf("SndNxt = %d, want %d", tcb.SndNxt, seqnum.Value(1001).Add(400))
	}
}

func TestEvictCheckerCapturesProcessedTCB(t *testing.T) {
	r := newRig(Config{Slots: 8, FPULatency: 10})
	r.f.InstallNew(newTCB(1))
	r.f.InstallNew(newTCB(2))
	if got := r.f.FlowCount(); got != 2 {
		t.Fatalf("flows = %d", got)
	}
	if !r.f.RequestEvict(1) {
		t.Fatal("evict request refused")
	}
	r.k.Run(100)
	if len(r.evd) != 1 || r.evd[0].FlowID != 1 {
		t.Fatalf("evicted = %v", r.evd)
	}
	if r.f.Has(1) || !r.f.Has(2) {
		t.Fatal("wrong flow removed")
	}
}

func TestEvictedTCBCarriesPendingEvents(t *testing.T) {
	// Events handled during the eviction window travel with the TCB
	// (§4.3.2: no event loss).
	r := newRig(Config{Slots: 8, FPULatency: 30})
	r.f.InstallNew(newTCB(1))
	r.f.EnqueueEvent(reqEvent(1, 1101))
	r.k.Run(4) // handled, issued into the 30-cycle pipe
	r.f.RequestEvict(1)
	// More events arrive while the pass is in flight.
	r.f.EnqueueEvent(reqEvent(1, 1201))
	r.k.Run(200)
	if len(r.evd) != 1 {
		t.Fatalf("evictions = %d", len(r.evd))
	}
	tcb := r.evd[0]
	// Either the second event was processed in the final pass (SndNxt
	// advanced) or it travels in the TCB's input row.
	if tcb.SndNxt != seqnum.Value(1201) && tcb.In.Valid&flow.VReq == 0 {
		t.Fatalf("second event lost: sndnxt=%d in=%04x", tcb.SndNxt, tcb.In.Valid)
	}
}

func TestAcceptTCBNeedsReservation(t *testing.T) {
	r := newRig(Config{Slots: 2})
	r.f.InstallNew(newTCB(1))
	r.f.InstallNew(newTCB(2))
	if r.f.HasSlot() {
		t.Fatal("slots should be full")
	}
	if r.f.ReserveSlot() {
		t.Fatal("reservation granted with no slot")
	}
	if r.f.AcceptTCB(newTCB(3)) {
		t.Fatal("unreserved accept into full FPC")
	}
}

func TestSwapInInstallsThroughPort(t *testing.T) {
	r := newRig(Config{Slots: 4})
	if !r.f.ReserveSlot() {
		t.Fatal("no reservation")
	}
	in := newTCB(7)
	in.In.Req = 1101 // pending input accumulated in DRAM
	in.In.Valid = flow.VReq
	if !r.f.AcceptTCB(in) {
		t.Fatal("accept failed")
	}
	r.k.Run(100)
	if len(r.inst) != 1 || r.inst[0] != 7 {
		t.Fatalf("install signal = %v", r.inst)
	}
	// The carried input demanded a pass: data must have been sent.
	tcb := r.tcb(t, 7)
	if tcb.SndNxt != 1101 {
		t.Fatalf("swapped-in TCB not processed: SndNxt=%d", tcb.SndNxt)
	}
}

func TestColdestFlowSelection(t *testing.T) {
	r := newRig(Config{Slots: 8})
	for i := 1; i <= 3; i++ {
		r.f.InstallNew(newTCB(flow.ID(i)))
	}
	// Touch flows 2 and 3 later; flow 1 stays coldest.
	r.k.Run(10)
	r.f.EnqueueEvent(reqEvent(2, 1101))
	r.k.Run(10)
	r.f.EnqueueEvent(reqEvent(3, 1101))
	r.k.Run(10)
	if got := r.f.ColdestFlow(); got != 1 {
		t.Fatalf("coldest = %d, want 1", got)
	}
}

func TestStallModeRate(t *testing.T) {
	// The baseline of §3.1: one event per StallNum/StallDen cycles.
	r := newRig(Config{Slots: 8, Mode: ModeStall, StallNum: 17, StallDen: 1})
	r.f.InstallNew(newTCB(1))
	req := seqnum.Value(1001)
	r.k.Register(sim.TickerFunc(func(int64) {
		for !r.f.input.Full() {
			req = req.Add(10)
			r.f.EnqueueEvent(reqEvent(1, req))
		}
	}))
	r.k.Run(1700)
	handled := r.f.EventsHandled.Total()
	if handled < 90 || handled > 105 {
		t.Fatalf("stall-mode handled %d in 1700 cycles, want ~100", handled)
	}
}

func TestStallModeFractionalCycles(t *testing.T) {
	// 322 MHz / 17 cycles modeled at 250 MHz: 13.2 cycles per event.
	r := newRig(Config{Slots: 8, Mode: ModeStall, StallNum: 17 * 250, StallDen: 322})
	r.f.InstallNew(newTCB(1))
	req := seqnum.Value(1001)
	r.k.Register(sim.TickerFunc(func(int64) {
		for !r.f.input.Full() {
			req = req.Add(10)
			r.f.EnqueueEvent(reqEvent(1, req))
		}
	}))
	r.k.Run(13_200)
	handled := r.f.EventsHandled.Total()
	if handled < 970 || handled < 1 || handled > 1030 {
		t.Fatalf("fractional stall rate: %d events in 13200 cycles, want ~1000", handled)
	}
}

func TestFreeFlowReleasesSlot(t *testing.T) {
	r := newRig(Config{Slots: 2, FPULatency: 5})
	r.f.InstallNew(newTCB(1))
	// An in-window RST event terminates the flow; the slot must free.
	r.f.EnqueueEvent(flow.Event{Kind: flow.EvRx, Flow: 1, RxFlags: flow.RxRST, RstSeq: 5001})
	r.k.Run(50)
	if r.f.Has(1) || r.f.FlowCount() != 0 {
		t.Fatal("terminated flow still resident")
	}
	if !r.f.HasSlot() {
		t.Fatal("slot not reclaimed")
	}
}

// TestVictimAndSlotChoiceMatchFullScans drives random install / swap-in /
// handle / RequestEvict / terminate sequences and checks, every cycle,
// that the age array and free bitmap answer exactly what walking the
// slot structs would: ColdestFlow is the first least-recently-active
// resident slot not marked for eviction, a TCB lands in the lowest free
// index, and FlowCount is the number of used slots.
func TestVictimAndSlotChoiceMatchFullScans(t *testing.T) {
	// 70 slots span two bitmap words; with 3 the coldest slot is often a
	// just-installed, just-touched or tied one, which is where a wrong
	// tie-break or a stale age would show.
	for _, slots := range []int{3, 70} {
		t.Run(fmt.Sprint(slots, "slots"), func(t *testing.T) { victimAndSlotChoice(t, slots) })
	}
}

func victimAndSlotChoice(t *testing.T, slots int) {
	r := newRig(Config{Slots: slots, FPULatency: 6})
	rng := sim.NewRand(3)

	// The oracle's own activity record: a slot's age is the later of its
	// install cycle and its TCB's last handled event.
	installedAt := map[flow.ID]int64{}
	age := func(s *slot) int64 { return max(installedAt[s.tcb.FlowID], s.tcb.LastActive) }
	naiveColdest := func() flow.ID {
		best, bestAge := flow.NoFlow, int64(1)<<62
		for i := range r.f.slots {
			if s := &r.f.slots[i]; s.used && !s.evict && age(s) < bestAge {
				best, bestAge = s.tcb.FlowID, age(s)
			}
		}
		return best
	}
	naiveFree := func() int {
		for i := range r.f.slots {
			if !r.f.slots[i].used {
				return i
			}
		}
		return -1
	}
	resident := func() []flow.ID {
		var ids []flow.ID
		for i := range r.f.slots {
			if r.f.slots[i].used {
				ids = append(ids, r.f.slots[i].tcb.FlowID)
			}
		}
		return ids
	}
	check := func(step int) {
		t.Helper()
		if got, want := r.f.ColdestFlow(), naiveColdest(); got != want {
			t.Fatalf("step %d cycle %d: ColdestFlow = %d, full scan says %d", step, r.k.Now(), got, want)
		}
		if got, want := r.f.FlowCount(), len(resident()); got != want {
			t.Fatalf("step %d: FlowCount = %d, %d slots used", step, got, want)
		}
	}
	landed := func(step int, id flow.ID, want int) {
		t.Helper()
		if got, ok := r.f.lookup(id); !ok || got != want {
			t.Fatalf("step %d: flow %d landed in slot %d (resident %v), lowest free was %d", step, id, got, ok, want)
		}
	}

	nextID := flow.ID(1)
	var evicts, frees, swapIns int
	for step := 0; step < 4000; step++ {
		ids := resident()
		switch op := rng.Intn(10); {
		case op < 2 && r.f.HasSlot(): // new flow
			want := naiveFree()
			installedAt[nextID] = r.k.Now()
			r.f.InstallNew(newTCB(nextID))
			landed(step, nextID, want)
			nextID++
		case op < 4 && r.f.ReserveSlot(): // swap-in through the write port
			r.f.AcceptTCB(newTCB(nextID))
			nextID++
			swapIns++
		case op < 7 && len(ids) > 0: // an event touches a resident flow
			r.f.EnqueueEvent(flow.Event{Kind: flow.EvRx, Flow: ids[rng.Intn(len(ids))], HasWnd: true, Wnd: 1 << 20})
		case op < 8 && len(ids) > 0:
			if r.f.RequestEvict(ids[rng.Intn(len(ids))]) {
				evicts++
			}
		case op < 9 && len(ids) > 0: // an in-window RST terminates the flow
			r.f.EnqueueEvent(flow.Event{Kind: flow.EvRx, Flow: ids[rng.Intn(len(ids))], RxFlags: flow.RxRST, RstSeq: 5001})
			frees++
		}
		check(step)
		for n := rng.Intn(4); n > 0; n-- {
			want, seen := naiveFree(), len(r.inst)
			r.k.Run(1)
			if len(r.inst) > seen { // drainIncoming runs first in the tick
				id := r.inst[seen]
				installedAt[id] = r.k.Now()
				landed(step, id, want)
			}
			check(step)
		}
	}
	if evicts < 100 || frees < 100 || swapIns < 100 || len(r.evd) < 50 {
		t.Fatalf("test ineffective: %d evict requests (%d captured), %d terminations, %d swap-ins", evicts, len(r.evd), frees, swapIns)
	}
}
