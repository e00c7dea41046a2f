package memmgr

import (
	"testing"

	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
)

func estTCB(id flow.ID) *flow.TCB {
	t := &flow.TCB{
		FlowID: id, State: flow.StateEstablished,
		ISS: 1000, SndUna: 1001, SndNxt: 1001, Req: 1001,
		IRS: 5000, RcvNxt: 5001, AppRead: 5001, DeliveredTo: 5001, LastAckSent: 5001,
		RcvBuf: 1 << 19, SndWnd: 1 << 20,
	}
	t.Cwnd = 1 << 20
	return t
}

func TestInsertExtractRoundTrip(t *testing.T) {
	k := sim.New()
	m := New(k, DefaultConfig(DDR), Hooks{})
	tcb := estTCB(1)
	m.Insert(tcb)
	if !m.Has(1) || m.FlowCount() != 1 {
		t.Fatal("insert lost")
	}
	got, readyAt, ok := m.Extract(1)
	if !ok || got != tcb || m.Has(1) {
		t.Fatal("extract broken")
	}
	if readyAt <= k.Now() {
		t.Fatal("extract completed instantaneously — no DRAM latency")
	}
}

func TestHandleEventTriggersCheckLogic(t *testing.T) {
	k := sim.New()
	var swapReqs []flow.ID
	m := New(k, DefaultConfig(HBM), Hooks{
		OnSwapInRequest: func(id flow.ID) { swapReqs = append(swapReqs, id) },
	})
	k.Register(sim.TickerFunc(m.Tick))
	m.Insert(estTCB(1))
	// A sendable request: actionable → swap-in request.
	m.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: 1101})
	k.Run(200)
	if len(swapReqs) != 1 || swapReqs[0] != 1 {
		t.Fatalf("swap requests = %v", swapReqs)
	}
	tcb, _, _ := m.Extract(1)
	if tcb.In.Valid&flow.VReq == 0 || tcb.In.Req != 1101 {
		t.Fatalf("event not handled into the TCB: %+v", tcb.In)
	}
}

func TestNonActionableFlowWaitsInDRAM(t *testing.T) {
	k := sim.New()
	var swapReqs int
	m := New(k, DefaultConfig(DDR), Hooks{
		OnSwapInRequest: func(flow.ID) { swapReqs++ },
	})
	k.Register(sim.TickerFunc(m.Tick))
	tcb := estTCB(2)
	tcb.SndWnd = 0 // window closed: a send request cannot act
	m.Insert(tcb)
	m.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: 2, HasReq: true, Req: 1101})
	k.Run(200)
	if swapReqs != 0 {
		t.Fatalf("window-blocked flow requested swap-in %d times", swapReqs)
	}
	if m.Handled.Total() != 1 {
		t.Fatalf("event not handled: %d", m.Handled.Total())
	}
}

func TestExtractAbsorbsQueuedEvents(t *testing.T) {
	k := sim.New()
	m := New(k, DefaultConfig(DDR), Hooks{})
	m.Insert(estTCB(3))
	m.Insert(estTCB(4))
	// Queue events for both flows without ticking (still in the input queue).
	m.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: 3, HasReq: true, Req: 1201})
	m.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: 4, HasReq: true, Req: 1301})
	tcb, _, _ := m.Extract(3)
	if tcb.In.Req != 1201 || tcb.In.Valid&flow.VReq == 0 {
		t.Fatalf("queued event lost on extract: %+v", tcb.In)
	}
	// Flow 4's event must survive in the queue.
	k.Register(sim.TickerFunc(m.Tick))
	k.Run(300)
	got, _, _ := m.Extract(4)
	if got.In.Req != 1301 {
		t.Fatalf("unrelated event disturbed: %+v", got.In)
	}
}

// TestExtractAbsorbsInPlace checks the in-place absorb against a
// rebuild-style reference over random enqueue / tick / extract steps: the
// extracted TCB's input row, the surviving events of both queues (other
// flows', in FIFO order), Handled, and every flow's queued count must be
// what filtering copies of the queues into fresh ones gives.
func TestExtractAbsorbsInPlace(t *testing.T) {
	const flows = 12
	k := sim.New()
	m := New(k, DefaultConfig(DDR), Hooks{})
	k.Register(sim.TickerFunc(m.Tick))
	for id := flow.ID(0); id < flows; id++ {
		m.Insert(estTCB(id))
	}
	rng := sim.NewRand(7)
	req := uint32(2000)
	absorbedIn, absorbedFl := 0, 0 // events absorbed out of each queue

	checkQueued := func(step int) {
		t.Helper()
		var want [flows]int32
		for i := 0; i < m.input.Len(); i++ {
			want[m.input.AtPtr(i).Flow]++
		}
		for i := 0; i < m.inFlight.Len(); i++ {
			want[m.inFlight.AtPtr(i).ev.Flow]++
		}
		for id := flow.ID(0); id < flows; id++ {
			if got := m.queued.Get(id); got != want[id] {
				t.Fatalf("step %d: queued[%d] = %d, queues hold %d", step, id, got, want[id])
			}
		}
	}

	for step := 0; step < 600; step++ {
		switch rng.Intn(4) {
		case 0, 1: // a burst of events, some for flows that are not resident
			for n := rng.Intn(6); n >= 0; n-- {
				req += 10
				m.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: flow.ID(rng.Intn(flows)), HasReq: true, Req: seqnum.Value(req)})
			}
		case 2: // let accesses start and retire
			k.Run(int64(rng.Intn(40)))
		case 3:
			id := flow.ID(rng.Intn(flows))
			if !m.Has(id) {
				m.Insert(estTCB(id))
				break
			}
			// Reference: filter copies of both queues, input first.
			var wantIn []flow.Event
			var wantFl []pendingEvent
			wantRow := m.tcbs.Get(id).In
			handled := m.Handled.Total()
			for i := 0; i < m.input.Len(); i++ {
				if ev := *m.input.AtPtr(i); ev.Flow == id {
					wantRow.Accumulate(&ev)
					handled++
					absorbedIn++
				} else {
					wantIn = append(wantIn, ev)
				}
			}
			for i := 0; i < m.inFlight.Len(); i++ {
				if pe := *m.inFlight.AtPtr(i); pe.ev.Flow == id {
					wantRow.Accumulate(&pe.ev)
					handled++
					absorbedFl++
				} else {
					wantFl = append(wantFl, pe)
				}
			}

			tcb, _, ok := m.Extract(id)
			if !ok || tcb.In != wantRow {
				t.Fatalf("step %d: extracted row %+v, want %+v", step, tcb.In, wantRow)
			}
			if m.Handled.Total() != handled {
				t.Fatalf("step %d: Handled = %d, want %d", step, m.Handled.Total(), handled)
			}
			if m.input.Len() != len(wantIn) || m.inFlight.Len() != len(wantFl) {
				t.Fatalf("step %d: queues hold %d+%d events, want %d+%d", step, m.input.Len(), m.inFlight.Len(), len(wantIn), len(wantFl))
			}
			for i, ev := range wantIn {
				if *m.input.AtPtr(i) != ev {
					t.Fatalf("step %d: input[%d] = %+v, want %+v", step, i, *m.input.AtPtr(i), ev)
				}
			}
			for i, pe := range wantFl {
				if *m.inFlight.AtPtr(i) != pe {
					t.Fatalf("step %d: inFlight[%d] = %+v, want %+v", step, i, *m.inFlight.AtPtr(i), pe)
				}
			}
		}
		checkQueued(step)
	}
	if absorbedIn < 20 || absorbedFl < 20 {
		t.Fatalf("only %d+%d events absorbed — test ineffective", absorbedIn, absorbedFl)
	}
	// The survivors still drain normally.
	k.Run(100_000)
	if m.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", m.Backlog())
	}
	checkQueued(-1)
}

func TestCacheHitsSkipDRAM(t *testing.T) {
	k := sim.New()
	m := New(k, DefaultConfig(HBM), Hooks{})
	k.Register(sim.TickerFunc(m.Tick))
	m.Insert(estTCB(5))
	for i := 0; i < 10; i++ {
		m.EnqueueEvent(flow.Event{Kind: flow.EvRx, Flow: 5, HasWnd: true, Wnd: uint32(1000 + i)})
		k.Run(50)
	}
	if m.CacheMiss.Total() != 1 {
		t.Fatalf("misses = %d, want 1 (first touch)", m.CacheMiss.Total())
	}
	if m.CacheHits.Total() != 9 {
		t.Fatalf("hits = %d, want 9", m.CacheHits.Total())
	}
}

func TestDDRSlowerThanHBM(t *testing.T) {
	// The Fig 13 mechanism: DDR's effective bandwidth throttles TCB
	// traffic that HBM absorbs.
	measure := func(kind MemoryKind) int64 {
		k := sim.New()
		m := New(k, Config{Kind: kind}, Hooks{})
		k.Register(sim.TickerFunc(m.Tick))
		// 4K flows, one event each: all cache misses (cache disabled).
		for i := 0; i < 4096; i++ {
			m.Insert(estTCB(flow.ID(i)))
		}
		for i := 0; i < 4096; i++ {
			m.EnqueueEvent(flow.Event{Kind: flow.EvRx, Flow: flow.ID(i), HasWnd: true, Wnd: 9999})
		}
		k.RunUntil(func() bool { return m.Handled.Total() == 4096 }, 1_000_000)
		return k.Now()
	}
	ddr, hbm := measure(DDR), measure(HBM)
	if ddr <= hbm {
		t.Fatalf("DDR (%d cycles) not slower than HBM (%d cycles)", ddr, hbm)
	}
	ratio := float64(ddr) / float64(hbm)
	if ratio < 3 {
		t.Fatalf("DDR/HBM slowdown = %.1f, want the bandwidth gap to show", ratio)
	}
}

func TestDropDiscards(t *testing.T) {
	k := sim.New()
	m := New(k, DefaultConfig(DDR), Hooks{})
	m.Insert(estTCB(6))
	m.Drop(6)
	if m.Has(6) || m.FlowCount() != 0 {
		t.Fatal("drop did not remove the flow")
	}
	if _, _, ok := m.Extract(6); ok {
		t.Fatal("extract of dropped flow succeeded")
	}
}
