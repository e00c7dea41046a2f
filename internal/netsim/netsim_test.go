package netsim

import (
	"testing"

	"f4t/internal/sim"
	"f4t/internal/wire"
)

func tcpPkt(payload int) *wire.Packet {
	return &wire.Packet{Kind: wire.KindTCP, PayloadLen: payload}
}

func TestSerializationTiming(t *testing.T) {
	k := sim.New()
	var arrivals []int64
	p := NewPipe(k, 100, 0, 1, func(*wire.Packet) { arrivals = append(arrivals, k.Now()) })
	// A 1460 B payload = 1538 wire bytes at 50 B/cycle ≈ 31 cycles.
	p.Send(tcpPkt(1460))
	p.Send(tcpPkt(1460)) // queues behind the first
	k.Run(100)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] < 30 || arrivals[0] > 33 {
		t.Fatalf("first arrival at %d, want ~31", arrivals[0])
	}
	if gap := arrivals[1] - arrivals[0]; gap < 29 || gap > 33 {
		t.Fatalf("serialization gap = %d, want ~31", gap)
	}
}

func TestPropagationDelay(t *testing.T) {
	k := sim.New()
	var at int64 = -1
	p := NewPipe(k, 100, 1000, 1, func(*wire.Packet) { at = k.Now() }) // 1 us = 250 cycles
	p.Send(tcpPkt(0))
	k.Run(400)
	if at < 250 {
		t.Fatalf("arrival at %d, want ≥ 250 (propagation)", at)
	}
}

func TestLinkUtilizationAtSaturation(t *testing.T) {
	k := sim.New()
	delivered := 0
	p := NewPipe(k, 100, 0, 1, func(*wire.Packet) { delivered++ })
	k.Register(sim.TickerFunc(func(int64) {
		if p.Backlog() < 100 {
			p.Send(tcpPkt(1460))
		}
	}))
	k.Run(10_000)
	// 100 Gbps over 40 us = 500 KB ≈ 325 full frames.
	if delivered < 300 || delivered > 340 {
		t.Fatalf("delivered %d frames, want ~325", delivered)
	}
}

func TestDropOnce(t *testing.T) {
	k := sim.New()
	var got []int
	p := NewPipe(k, 100, 0, 1, func(pkt *wire.Packet) { got = append(got, pkt.PayloadLen) })
	p.SetFaults(Faults{DropOnce: 3})
	for i := 1; i <= 5; i++ {
		p.Send(tcpPkt(i))
	}
	k.Run(100)
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for _, n := range got {
		if n == 3 {
			t.Fatal("the 3rd packet was delivered despite DropOnce")
		}
	}
	if p.DroppedPkts != 1 {
		t.Fatalf("dropped = %d", p.DroppedPkts)
	}
}

func TestDropEvery(t *testing.T) {
	k := sim.New()
	n := 0
	p := NewPipe(k, 100, 0, 1, func(*wire.Packet) { n++ })
	p.SetFaults(Faults{DropEvery: 10})
	for i := 0; i < 100; i++ {
		p.Send(tcpPkt(64))
	}
	k.Run(1000)
	if p.DroppedPkts != 10 || n != 90 {
		t.Fatalf("dropped=%d delivered=%d", p.DroppedPkts, n)
	}
}

func TestLossProbabilityRoughlyHolds(t *testing.T) {
	k := sim.New()
	n := 0
	p := NewPipe(k, 100, 0, 42, func(*wire.Packet) { n++ })
	p.SetFaults(Faults{LossProb: 0.1})
	const total = 5000
	for i := 0; i < total; i++ {
		p.Send(tcpPkt(0))
	}
	k.Run(200_000)
	lossRate := float64(p.DroppedPkts) / total
	if lossRate < 0.07 || lossRate > 0.13 {
		t.Fatalf("loss rate = %.3f, want ~0.10", lossRate)
	}
}

func TestDuplication(t *testing.T) {
	k := sim.New()
	n := 0
	p := NewPipe(k, 100, 0, 7, func(*wire.Packet) { n++ })
	p.SetFaults(Faults{DupProb: 1.0})
	for i := 0; i < 10; i++ {
		p.Send(tcpPkt(0))
	}
	k.Run(1000)
	if n != 20 {
		t.Fatalf("delivered %d with certain duplication, want 20", n)
	}
}

func TestReorderDelays(t *testing.T) {
	k := sim.New()
	var order []int
	p := NewPipe(k, 100, 0, 3, func(pkt *wire.Packet) { order = append(order, pkt.PayloadLen) })
	p.SetFaults(Faults{ReorderProb: 1.0, ReorderNS: 10_000})
	p.Send(tcpPkt(1))
	p.SetFaults(Faults{}) // second packet travels normally
	p.Send(tcpPkt(2))
	k.Run(5000)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want [2 1]", order)
	}
	// ReorderPkts counted on the delayed one.
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int64 {
		k := sim.New()
		var at []int64
		p := NewPipe(k, 100, 100, 99, func(*wire.Packet) { at = append(at, k.Now()) })
		p.SetFaults(Faults{LossProb: 0.3, DupProb: 0.2, ReorderProb: 0.2, ReorderNS: 500})
		for i := 0; i < 200; i++ {
			p.Send(tcpPkt(i % 700))
		}
		k.Run(50_000)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
