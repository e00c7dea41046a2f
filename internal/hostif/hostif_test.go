package hostif

import (
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
