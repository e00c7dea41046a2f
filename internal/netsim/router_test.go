package netsim

import (
	"fmt"
	"testing"

	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/wire"
)

// testStar builds a 3-node single-router star on a serial kernel with
// per-node capture sinks and returns everything a test needs to drive
// raw packets through it.
func testStar(t *testing.T, cfg AQMConfig) (*sim.Kernel, *Topology, []wire.Addr, [][]*wire.Packet) {
	t.Helper()
	k := sim.New()
	addrs := []wire.Addr{
		wire.MakeAddr(10, 9, 0, 1),
		wire.MakeAddr(10, 9, 0, 2),
		wire.MakeAddr(10, 9, 0, 3),
	}
	specs := make([]NodeSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = NodeSpec{Addr: a, Island: 0, Gbps: 100, PropNS: 600}
	}
	topo := NewStarOn(k, 0, specs, cfg, 9)
	got := make([][]*wire.Packet, len(addrs))
	for i := range addrs {
		i := i
		topo.SetNodeSink(i, func(p *wire.Packet) { got[i] = append(got[i], p) })
	}
	return k, topo, addrs, got
}

func routedPkt(src, dst wire.Addr, seq uint32, payload int) *wire.Packet {
	p := &wire.Packet{Kind: wire.KindTCP, PayloadLen: payload}
	p.IP.Src, p.IP.Dst = src, dst
	p.TCP.Seq = seqnum.Value(seq)
	return p
}

func TestRouterForwardsByDestinationInOrder(t *testing.T) {
	k, topo, addrs, got := testStar(t, DropTail(0))
	for i := 0; i < 5; i++ {
		topo.NodeTX(0)(routedPkt(addrs[0], addrs[1], uint32(i), 1460))
	}
	topo.NodeTX(2)(routedPkt(addrs[2], addrs[0], 99, 100))
	k.Run(10_000)

	if len(got[1]) != 5 {
		t.Fatalf("node 1 received %d packets, want 5", len(got[1]))
	}
	for i, p := range got[1] {
		if p.TCP.Seq != seqnum.Value(i) {
			t.Fatalf("FIFO violated: slot %d has seq %d", i, p.TCP.Seq)
		}
	}
	if len(got[0]) != 1 || got[0][0].TCP.Seq != 99 {
		t.Fatalf("node 0 received %v", got[0])
	}
	if len(got[2]) != 0 {
		t.Fatalf("node 2 received %d stray packets", len(got[2]))
	}
	r := topo.Routers[0]
	if r.FwdPkts != 6 || r.NoRoutePkts != 0 {
		t.Fatalf("router counters: fwd=%d noroute=%d", r.FwdPkts, r.NoRoutePkts)
	}
	if topo.NodePorts[1].DeqPkts != 5 {
		t.Fatalf("port 1 dequeued %d, want 5", topo.NodePorts[1].DeqPkts)
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	k, topo, addrs, got := testStar(t, DropTail(0))
	topo.NodeTX(0)(routedPkt(addrs[0], wire.MakeAddr(192, 168, 0, 1), 0, 100))
	k.Run(5_000)
	if topo.Routers[0].NoRoutePkts != 1 {
		t.Fatalf("NoRoutePkts = %d, want 1", topo.Routers[0].NoRoutePkts)
	}
	for i := range got {
		if len(got[i]) != 0 {
			t.Fatalf("node %d received an unroutable packet", i)
		}
	}
}

func TestRouterPortTailDropAndPeak(t *testing.T) {
	// Two senders converge on node 1's downlink: 200 Gbps in, 100 Gbps
	// out. A limit of 5 KB holds ~3 full-size frames, so the standing
	// queue must tail-drop most of the burst and record the peak.
	k, topo, addrs, got := testStar(t, DropTail(5_000))
	for i := 0; i < 20; i++ {
		topo.NodeTX(0)(routedPkt(addrs[0], addrs[1], uint32(i), 1460))
		topo.NodeTX(2)(routedPkt(addrs[2], addrs[1], uint32(100+i), 1460))
	}
	k.Run(50_000)
	port := topo.NodePorts[1]
	if port.TailDrops == 0 {
		t.Fatal("no tail drops despite 2x oversubscription")
	}
	if want := 40 - int(port.TailDrops); len(got[1]) != want {
		t.Fatalf("delivered %d, want %d (drops %d)", len(got[1]), want, port.TailDrops)
	}
	if port.PeakQBytes == 0 || port.PeakQBytes > 5_000 {
		t.Fatalf("peak queue %d outside (0, limit]", port.PeakQBytes)
	}
	if port.FirstCongCycle < 0 {
		t.Fatal("congestion onset not recorded")
	}
	// Survivors from each sender still arrive in their send order.
	last := map[wire.Addr]seqnum.Value{}
	for i, p := range got[1] {
		if prev, ok := last[p.IP.Src]; ok && p.TCP.Seq <= prev {
			t.Fatalf("reordered survivors at %d: seq %d after %d", i, p.TCP.Seq, prev)
		}
		last[p.IP.Src] = p.TCP.Seq
	}
}

func TestRouterPortSerializes(t *testing.T) {
	// Two 1460 B packets into a 100 Gbps port: the second's delivery
	// trails the first by its full serialization time, never less.
	k, topo, addrs, _ := testStar(t, DropTail(0))
	var at []int64
	topo.SetNodeSink(1, func(p *wire.Packet) { at = append(at, k.Now()) })
	pkt := routedPkt(addrs[0], addrs[1], 0, 1460)
	wireCycles := sim.GbpsRate(100).CyclesFor(int64(pkt.WireLen()))
	topo.NodeTX(0)(pkt)
	topo.NodeTX(0)(routedPkt(addrs[0], addrs[1], 1, 1460))
	k.Run(10_000)
	if len(at) != 2 {
		t.Fatalf("delivered %d, want 2", len(at))
	}
	if gap := at[1] - at[0]; gap < wireCycles {
		t.Fatalf("delivery gap %d cycles < serialization %d", gap, wireCycles)
	}
}

func TestChainRoutesAcrossHops(t *testing.T) {
	// Dumbbell: node 0 on router 0, node 1 on router 1. A packet from 0
	// to 1 must cross the trunk; counters on both routers move.
	k := sim.New()
	a0, a1 := wire.MakeAddr(10, 9, 1, 1), wire.MakeAddr(10, 9, 1, 2)
	nodes := []NodeSpec{
		{Addr: a0, Island: 0, RouterIdx: 0, Gbps: 100, PropNS: 600},
		{Addr: a1, Island: 0, RouterIdx: 1, Gbps: 100, PropNS: 600},
	}
	topo := NewDumbbellOn(k, [2]int{0, 0}, 100, 1_000, nodes, DropTail(0), 7)
	var got []*wire.Packet
	topo.SetNodeSink(1, func(p *wire.Packet) { got = append(got, p) })
	topo.SetNodeSink(0, func(p *wire.Packet) {})
	topo.NodeTX(0)(routedPkt(a0, a1, 7, 100))
	k.Run(10_000)
	if len(got) != 1 || got[0].TCP.Seq != 7 {
		t.Fatalf("cross-trunk delivery failed: %v", got)
	}
	if topo.Routers[0].FwdPkts != 1 || topo.Routers[1].FwdPkts != 1 {
		t.Fatalf("router hops: fwd0=%d fwd1=%d", topo.Routers[0].FwdPkts, topo.Routers[1].FwdPkts)
	}
}

func TestTopologyShardedBitIdentical(t *testing.T) {
	// The same raw-packet scenario (nodes and router on distinct islands)
	// must produce identical delivery cycles and counters on every
	// fabric.
	drive := func(f sim.Fabric) string {
		addrs := []wire.Addr{
			wire.MakeAddr(10, 9, 2, 1),
			wire.MakeAddr(10, 9, 2, 2),
			wire.MakeAddr(10, 9, 2, 3),
		}
		specs := make([]NodeSpec, len(addrs))
		for i, a := range addrs {
			specs[i] = NodeSpec{Addr: a, Island: i, Gbps: 100, PropNS: 600}
		}
		topo := NewStarOn(f, len(addrs), specs, RED(8_000, false), 21)
		at := make([][]int64, len(addrs)) // per-node delivery cycles
		for i := range addrs {
			i := i
			kI := f.IslandKernel(i)
			topo.SetNodeSink(i, func(p *wire.Packet) { at[i] = append(at[i], kI.Now()) })
		}
		// Burst from nodes 0 and 2 into node 1, then a trickle.
		for i := 0; i < 12; i++ {
			topo.NodeTX(0)(routedPkt(addrs[0], addrs[1], uint32(i), 1460))
			topo.NodeTX(2)(routedPkt(addrs[2], addrs[1], uint32(100+i), 1000))
		}
		f.Run(4_000)
		topo.NodeTX(1)(routedPkt(addrs[1], addrs[0], 7, 64))
		f.Run(46_000)
		var deq []int64
		for _, p := range topo.NodePorts {
			deq = append(deq, p.DeqPkts)
		}
		return fmt.Sprintf("at=%v fwd=%d deq=%v", at, topo.Routers[0].FwdPkts, deq)
	}
	simtest.FabricMatrix(t, drive)
}
