package hostif

import (
	"fmt"
	"slices"
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

func TestChannelCommandFetchTiming(t *testing.T) {
	k := sim.New()
	pcie := NewPCIe(k, DefaultPCIe())
	ch := NewChannel(k, pcie, CommandBytes16)

	for i := 0; i < 10; i++ {
		if !ch.Post(Command{Op: OpSend, Flow: 1, Ptr: 100}) {
			t.Fatal("post failed")
		}
	}
	// Nothing is device-visible before the DMA fetch completes.
	if _, ok := ch.PopCommand(); ok {
		t.Fatal("command visible before fetch")
	}
	ch.TickDevice()
	if _, ok := ch.PopCommand(); ok {
		t.Fatal("command visible before PCIe latency elapsed")
	}
	// PCIe latency ~450 ns = ~113 cycles; run past it.
	for i := 0; i < 200; i++ {
		k.Step()
		ch.TickDevice()
	}
	n := 0
	for {
		if _, ok := ch.PopCommand(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("fetched %d commands, want 10", n)
	}
	if ch.Fetched != 10 || ch.Posted != 10 {
		t.Fatalf("stats: posted=%d fetched=%d", ch.Posted, ch.Fetched)
	}
}

func TestChannelQueueDepthBound(t *testing.T) {
	k := sim.New()
	pcie := NewPCIe(k, DefaultPCIe())
	ch := NewChannel(k, pcie, CommandBytes16)
	for i := 0; i < QueueDepth; i++ {
		if !ch.Post(Command{}) {
			t.Fatalf("post %d rejected below depth", i)
		}
	}
	if ch.Post(Command{}) {
		t.Fatal("post beyond queue depth accepted")
	}
}

func TestCompletionDelivery(t *testing.T) {
	k := sim.New()
	pcie := NewPCIe(k, DefaultPCIe())
	ch := NewChannel(k, pcie, CommandBytes16)
	ch.PushCompletions([]Completion{{Kind: CompAcked, Flow: 2, Seq: 777}})
	if _, ok := ch.PopCompletion(); ok {
		t.Fatal("completion visible before DMA")
	}
	k.Run(300)
	comp, ok := ch.PopCompletion()
	if !ok || comp.Flow != 2 || comp.Seq != 777 {
		t.Fatalf("completion = %+v, %v", comp, ok)
	}
}

func TestPCIeBandwidthSerializes(t *testing.T) {
	k := sim.New()
	pcie := NewPCIe(k, PCIeConfig{GBps: 13, LatencyNS: 400, TLPOverhead: 24})
	// 52 KB at 52 B/cycle = 1000+ cycles of occupancy; two transfers
	// must serialize.
	d1 := pcie.TransferToDevice(52_000)
	d2 := pcie.TransferToDevice(52_000)
	if d2-d1 < 900 {
		t.Fatalf("transfers did not serialize: %d then %d", d1, d2)
	}
	// Directions are independent.
	d3 := pcie.TransferToHost(52)
	if d3 > d1 {
		t.Fatalf("toHost blocked by toDevice traffic: %d vs %d", d3, d1)
	}
	if pcie.BytesToDevice != 104_000 || pcie.BytesToHost != 52 {
		t.Fatalf("byte accounting: %d / %d", pcie.BytesToDevice, pcie.BytesToHost)
	}
}

func TestCommandWidthChangesFetchCost(t *testing.T) {
	// The §6 observation: halving the command size halves the PCIe
	// bytes per fetched batch.
	k := sim.New()
	p16 := NewPCIe(k, DefaultPCIe())
	ch16 := NewChannel(k, p16, CommandBytes16)
	p8 := NewPCIe(k, DefaultPCIe())
	ch8 := NewChannel(k, p8, CommandBytes8)
	for i := 0; i < 64; i++ {
		ch16.Post(Command{})
		ch8.Post(Command{})
	}
	ch16.TickDevice()
	ch8.TickDevice()
	if p16.BytesToDevice != 2*p8.BytesToDevice {
		t.Fatalf("bytes: 16B=%d 8B=%d", p16.BytesToDevice, p8.BytesToDevice)
	}
}

// A completion batch landing wakes the component that polls the
// completion queue, on the cycle the DMA write completes.
func TestCompletionLandingWakesPoller(t *testing.T) {
	for _, k := range []*sim.Kernel{sim.New(), sim.NewShadow()} {
		ch := NewChannel(k, NewPCIe(k, DefaultPCIe()), CommandBytes16)
		var got []int64
		poller := &simtest.Probe{
			Act: func(c int64) {
				if _, ok := ch.PopCompletion(); ok {
					got = append(got, c)
				}
			},
			Next: func(now int64) int64 {
				if ch.PendingCompletions() > 0 {
					return now + 1
				}
				return sim.Dormant
			},
		}
		k.Register(poller)
		k.Register(simtest.At(10, func() { ch.PushCompletions([]Completion{{Flow: 1}}) }))
		ch.SetWaker(poller.W)
		k.Run(1_000)
		if len(got) != 1 || got[0] <= 10 {
			t.Fatalf("skipping %v: completion polled at %v, want once after cycle 10", k.Skipping(), got)
		}
		if k.Skipping() && (len(poller.Ticked) != 1 || poller.Ticked[0] != got[0]) {
			t.Fatalf("poller ticked %v, want only its landing cycle %d", poller.Ticked, got[0])
		}
	}
}

// A Post into a full fetch pipeline rings no doorbell and leaves the
// channel Dormant: only a fetch completing, on a timer its device side
// scheduled, can start the next fetch. Ticked only on the cycles the
// channel reports (its NextWork, its doorbell, its fetch timers), the
// fetch engine starts and completes every fetch on the same cycles as
// when it is ticked every cycle.
func TestPostWhileFetchPipelineFull(t *testing.T) {
	k := sim.New()
	ch := NewChannel(k, NewPCIe(k, DefaultPCIe()), CommandBytes16)
	rings := 0
	ch.SetDoorbell(func() { rings++ })
	for i := 0; i < maxFetchesInFlight*fetchBatch; i++ {
		ch.Post(Command{})
	}
	ch.TickDevice()
	if ch.fetching != maxFetchesInFlight {
		t.Fatalf("%d fetches in flight, want %d", ch.fetching, maxFetchesInFlight)
	}
	rings = 0
	ch.Post(Command{})
	if rings != 0 || ch.NextWork(k.Now()) != sim.Dormant {
		t.Fatalf("post into a full pipeline: %d rings, NextWork %d; want none, Dormant", rings, ch.NextWork(k.Now()))
	}
	for ch.Fetched == 0 {
		k.Step()
	}
	if ch.NextWork(k.Now()) != k.Now()+1 {
		t.Fatal("a fetch slot freed with a command posted, but the channel reports no work")
	}
	ch.TickDevice()
	ch.Post(Command{})
	if rings != 0 {
		t.Fatal("post rang with the pipeline full again")
	}

	trace := func(k *sim.Kernel) (log []string, ticks int) {
		ch := NewChannel(k, NewPCIe(k, DefaultPCIe()), CommandBytes16)
		var fetched int64
		dev := &simtest.Probe{Next: ch.NextWork}
		dev.Act = func(c int64) {
			if ch.Fetched != fetched {
				log = append(log, fmt.Sprintf("%d done %d", c, ch.Fetched-fetched))
				fetched = ch.Fetched
			}
			before := ch.HostBacklog()
			ch.TickDevice()
			if n := before - ch.HostBacklog(); n > 0 {
				log = append(log, fmt.Sprintf("%d start %d", c, n))
			}
			ch.PopCommand() // the engine drains slower than a fetch lands
		}
		// Bursts of 1..70 commands every 37 cycles keep the pipeline full
		// for long stretches.
		host := &simtest.Probe{
			Act: func(c int64) {
				if c%37 == 0 && c <= 4_000 {
					for i := int64(0); i < c*13%70+1; i++ {
						ch.Post(Command{})
					}
				}
			},
			Next: func(now int64) int64 {
				if now >= 4_000 {
					return sim.Dormant
				}
				return (now/37 + 1) * 37
			},
		}
		k.Register(host)
		k.Register(dev)
		ch.SetDoorbell(func() { dev.W.Wake() })
		k.Run(10_000)
		if ch.Fetched != ch.Posted || ch.Posted == 0 {
			t.Fatalf("skipping %v: fetched %d of %d posted", k.Skipping(), ch.Fetched, ch.Posted)
		}
		return log, len(dev.Ticked)
	}
	every, all := trace(sim.NewShadow())
	due, ticked := trace(sim.New())
	if !slices.Equal(every, due) {
		t.Fatalf("fetch cycles differ:\nevery cycle %v\nwhen due    %v", every, due)
	}
	if ticked >= all {
		t.Fatalf("device ticked on %d of %d cycles: it never slept", ticked, all)
	}
}
