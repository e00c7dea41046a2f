package core

import (
	"fmt"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/wire"
)

func TestTestbedDefaults(t *testing.T) {
	tb := NewTestbed(DefaultHostA(2), DefaultHostB(3), 0)
	if len(tb.A.Threads()) != 2 || len(tb.B.Threads()) != 3 {
		t.Fatalf("thread counts: %d/%d", len(tb.A.Threads()), len(tb.B.Threads()))
	}
	if tb.A.Engine == nil || tb.B.Engine == nil {
		t.Fatal("engines missing")
	}
	// Cores == channels: per-thread queue pairs (§4.6).
	if len(tb.A.Engine.Channels) != 2 {
		t.Fatalf("channels = %d, want 2", len(tb.A.Engine.Channels))
	}
}

func TestTestbedTransfer(t *testing.T) {
	tb := NewTestbed(DefaultHostA(1), DefaultHostB(1), 100)
	tb.B.Threads()[0].Listen(80)
	conn := tb.A.Threads()[0].Dial(0, 80)
	if !tb.K.RunUntil(conn.Established, 2_000_000) {
		t.Fatal("handshake timed out")
	}
	// The core may be momentarily busy draining completions; retry the
	// send like a non-blocking loop would.
	const want = 4096
	sent, got := 0, 0
	var srvConn host.Conn
	ok := tb.K.RunUntil(func() bool {
		tb.A.Threads()[0].Poll()
		if sent < want {
			sent += conn.TrySend(want-sent, nil)
		}
		for _, ev := range tb.B.Threads()[0].Poll() {
			if srvConn == nil && (ev.Kind == host.EvAccepted || ev.Kind == host.EvReadable) {
				srvConn = ev.Conn
			}
		}
		if srvConn != nil {
			// Retry each cycle: a single readiness event may race a busy
			// core, so recv until drained (non-blocking loop semantics).
			got += srvConn.TryRecv(1 << 16)
		}
		return got >= want
	}, 5_000_000)
	if !ok {
		t.Fatalf("sent %d, delivered %d/%d, engA flows=%d engB flows=%d", sent, got, want, tb.A.Engine.FlowCount(), tb.B.Engine.FlowCount())
	}
}

func TestSystemZeroValueDefaults(t *testing.T) {
	// A HostConfig with no engine/cost settings must come up with the
	// reference design.
	tb := NewTestbed(HostConfig{
		IP: DefaultHostA(1).IP, MAC: DefaultHostA(1).MAC,
	}, DefaultHostB(1), 0)
	if len(tb.A.Engine.FPCs()) != 8 {
		t.Fatalf("default FPC count = %d", len(tb.A.Engine.FPCs()))
	}
	if len(tb.A.Threads()) != 1 {
		t.Fatalf("default cores = %d", len(tb.A.Threads()))
	}
}

// TestTestbedISNsDiffer pins the per-host seed derivation: with one
// seed on both engines, the first connection's two ISNs were equal,
// which hides any send/receive sequence-space mix-up.
func TestTestbedISNsDiffer(t *testing.T) {
	tb := NewTestbed(DefaultHostA(1), DefaultHostB(1), 0)
	tb.B.Threads()[0].Listen(80)
	conn := tb.A.Threads()[0].Dial(0, 80)
	if !tb.K.RunUntil(conn.Established, 2_000_000) {
		t.Fatal("handshake timed out")
	}
	var iss, irs []uint32
	tb.A.Engine.VisitTCBs(func(tcb *flow.TCB) {
		iss, irs = append(iss, uint32(tcb.ISS)), append(irs, uint32(tcb.IRS))
	})
	if len(iss) != 1 {
		t.Fatalf("host A has %d TCBs, want 1", len(iss))
	}
	if iss[0] == irs[0] {
		t.Fatalf("both directions drew ISN %#x: the two engines share a seed", iss[0])
	}
}

// TestBuildOnEveryFabric runs a core-built rig — a three-node star with
// hosts, bulk senders into node 0 — through the fabric matrix: the
// builder itself (not just exp's wrappers) must be fabric-independent.
func TestBuildOnEveryFabric(t *testing.T) {
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		specs := make([]netsim.NodeSpec, 3)
		for i := range specs {
			specs[i] = netsim.NodeSpec{
				Addr: wire.MakeAddr(10, 7, 0, byte(i+1)), MAC: wire.MAC{2, 0, 7, 0, 0, byte(i + 1)},
				Island: i, Gbps: 100, PropNS: 600,
			}
		}
		topo := netsim.NewStarOn(f, len(specs), specs, netsim.DropTail(0), 9)
		rig := Build(f, topo, func(i int) engine.Config {
			cfg := engine.DefaultConfig()
			cfg.Channels, cfg.Seed = 1, uint64(7+i)
			return cfg
		}, func(int) cpu.Costs { return cpu.DefaultCosts() })

		sink := apps.NewSink(rig.Machs[0].Threads(), 5001)
		f.RegisterOn(0, sink)
		f.Run(2_000)
		for i := 1; i < len(specs); i++ {
			f.RegisterOn(i, apps.NewBulkSender(rig.Machs[i].Threads(), 0, 5001, 1460))
		}
		f.Run(300_000)
		return fmt.Sprintf("delivered=%d rx=%d tx1=%d tx2=%d port=%d/%d",
			sink.Delivered.Total(), rig.Engines[0].RxPkts.Total(),
			rig.Engines[1].TxPkts.Total(), rig.Engines[2].TxPkts.Total(),
			topo.NodePorts[0].DeqPkts, topo.NodePorts[0].PeakQBytes)
	})
}
