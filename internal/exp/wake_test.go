package exp

import (
	"fmt"
	"strings"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/conformance"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
)

// The shadow kernel checks the wake discipline on every cycle it runs:
// a component the skipping kernel would leave idle may not have work,
// and no cached NextWork may be later than a fresh one where the
// skipping kernel would jump (see sim.NewShadow). These tests
// run every rig family on it for a bounded window; a missing Wake
// anywhere in a rig panics, naming the component.

// wakeRigs builds and drives one rig family each on the fabric handed
// in. Windows are short: the checker needs the rig's kinds of events,
// not its steady-state numbers.
var wakeRigs = []struct {
	name string
	run  func(t *testing.T, f sim.Fabric)
}{
	{"pair-bulk-f4t", func(t *testing.T, f sim.Fabric) { pairTransfer(f, "f4t", false) }},
	{"pair-bulk-linux", func(t *testing.T, f sim.Fabric) { pairTransfer(f, "linux", false) }},
	{"pair-rr-f4t", func(t *testing.T, f sim.Fabric) { pairTransfer(f, "f4t", true) }},
	{"nginx-f4t", func(t *testing.T, f sim.Fabric) { nginxWindow(f.(*sim.Kernel), "f4t") }},
	{"nginx-linux", func(t *testing.T, f sim.Fabric) { nginxWindow(f.(*sim.Kernel), "linux") }},
	{"echo-swap", func(t *testing.T, f sim.Fabric) {
		p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), func(c *engine.Config) {
			c.Memory = memmgr.DDR
			c.CarryBytes = false
			c.NumFPCs, c.SlotsPerFPC = 2, 16 // 128 flows over 32 slots: every round trip swaps
		})
		srv := apps.NewEchoServer(p.MachB.Threads(), 9001, 128)
		f.RegisterOn(IslandB, srv)
		f.Run(2_000)
		cli := apps.NewEchoClient(p.KA, p.MachA.Threads(), 0, 9001, 128, 64)
		f.RegisterOn(IslandA, cli)
		RunUntilCoarse(f, cli.Ready, 10_000, 2_000_000)
		f.Run(200_000)
		if p.EngA.Scheduler().SwapIns.Total() == 0 {
			t.Error("no swap-ins: the rig does not exercise the swap path")
		}
	}},
	{"churn", func(t *testing.T, f sim.Fabric) {
		cfg := QuickChurnConfig()
		cfg.TargetFlows, cfg.Clients = 2_048, 2
		cfg.SustainCycles, cfg.Budget, cfg.LifetimeXM = 100_000, 1_000_000, 40_000
		if r := ChurnOn(f, cfg); !r.Reached {
			t.Errorf("churn plateau not reached: %+v", r)
		}
	}},
	{"core-incast", func(t *testing.T, f sim.Fabric) {
		IncastPointOn(f, 4, netsim.RED(0, true), "dctcp", 1, nil, 20_000, 80_000)
	}},
	{"core-fanio", func(t *testing.T, f sim.Fabric) { // FanClient and RPCServer over a router star
		FanioPointOn(f, 3, netsim.CoDel(0, true), "dctcp", 8_192, nil, 20_000, 80_000)
	}},
	{"core-mixed", func(t *testing.T, f sim.Fabric) {
		MixedPointOn(f, netsim.ECNThreshold(netsim.DefaultCoDelTargetNS, 0), "dctcp", nil, 20_000, 80_000)
	}},
	{"core-wan", func(t *testing.T, f sim.Fabric) {
		WANPointOn(f, DefaultWANSenders(), netsim.DropTail(0), "cubic", nil, 20_000, 80_000)
	}},
	{"core-fairness", func(t *testing.T, f sim.Fabric) {
		FairnessPointOn(f, []string{"bbr", "cubic", "dctcp"}, netsim.CoDel(0, true), 1, nil, 20_000, 80_000)
	}},
	{"core-star-rr", func(t *testing.T, f sim.Fabric) { // RoundRobinSender through a router star
		r := NewF4TStarOn(f, []int{1, 2}, cpu.DefaultCosts(), netsim.DropTail(0), nil)
		sink := apps.NewSink(r.Machs[0].Threads(), 5001)
		f.RegisterOn(0, sink)
		f.Run(2_000)
		f.RegisterOn(1, apps.NewRoundRobinSender(r.Machs[1].Threads(), 0, 5001, 1024, 4))
		f.Run(200_000)
		if sink.Delivered.Total() == 0 {
			t.Error("nothing delivered")
		}
	}},
	// The facade's conformance rig runs on the shadow kernel in its own
	// fabric matrix (conformance.TestFacadeShardMatrix).
	{"netapi-httpload", func(t *testing.T, f sim.Fabric) {
		if _, err := HTTPLoadOn(f, HTTPLoadConfig{Requests: 2, BodyLen: 4096, EndCycle: 4_000_000}); err != nil {
			t.Error(err)
		}
	}},
	{"conformance-rigs", func(t *testing.T, f sim.Fabric) {
		for _, kind := range conformance.AllRigs {
			// Each rig gets a fresh shadow kernel of its own.
			r := conformance.RunOn(sim.NewShadow(), conformance.Config{Rig: kind, Seed: 6, Phases: 2, Conns: 2, Chunk: 2048})
			for _, v := range r.Violations {
				t.Errorf("%s violation: %+v", kind, v)
			}
		}
	}},
}

// pairTransfer runs a short two-node transfer: bulk or round-robin
// senders into a sink.
func pairTransfer(f sim.Fabric, stack string, roundRobin bool) {
	costs := cpu.DefaultCosts()
	var sendThreads, recvThreads []host.Thread
	if stack == "linux" {
		p := NewLinuxPairOn(f, 2, 2, costs)
		sendThreads, recvThreads = p.MachA.Threads(), p.MachB.Threads()
	} else {
		p := NewF4TPairOn(f, 2, 2, costs, nil)
		p.Link.AtoB.SetFaults(netsim.Faults{LossProb: 0.01, ReorderProb: 0.02, ReorderNS: 2_000})
		sendThreads, recvThreads = p.MachA.Threads(), p.MachB.Threads()
	}
	f.RegisterOn(IslandB, apps.NewSink(recvThreads, 5001))
	f.Run(2_000)
	if roundRobin {
		f.RegisterOn(IslandA, apps.NewRoundRobinSender(sendThreads, 0, 5001, 1024, 4))
	} else {
		f.RegisterOn(IslandA, apps.NewBulkSender(sendThreads, 0, 5001, 1460))
	}
	f.Run(300_000)
}

// nginxWindow runs the web rig (wrk against the HTTP server) past its
// ramp for a short window.
func nginxWindow(k *sim.Kernel, stack string) {
	costs := cpu.DefaultCosts()
	r := newNginxRig(k, stack, 2, costs)
	wrk := apps.NewWrk(k, r.clientThreads, 0, nginxPort, 128, 256, 4, costs)
	k.Register(wrk)
	RunUntilCoarse(k, wrk.Ready, 20_000, 2_000_000)
	k.Run(300_000)
}

// shadowRun runs fn on a fresh shadow kernel and returns the checker's
// panic, if any.
func shadowRun(t *testing.T, fn func(*testing.T, sim.Fabric)) (missed string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			missed = fmt.Sprint(r)
		}
	}()
	fn(t, sim.NewShadow())
	return ""
}

func TestWakeDiscipline(t *testing.T) {
	for _, rig := range wakeRigs {
		t.Run(rig.name, func(t *testing.T) {
			if missed := shadowRun(t, rig.run); missed != "" {
				t.Fatal(missed)
			}
		})
	}
}

// With the completion-landing wake removed outright — the channels'
// Wakers zeroed after registration, so a landing wakes nobody — the
// checker must catch the machine sitting on completions.
func TestWakeDisciplineCatchesMissingWake(t *testing.T) {
	missed := shadowRun(t, func(t *testing.T, f sim.Fabric) {
		p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), nil)
		for _, e := range []*engine.Engine{p.EngA, p.EngB} {
			for _, ch := range e.Channels {
				ch.SetWaker(sim.Waker{})
			}
		}
		f.RegisterOn(IslandB, apps.NewSink(p.MachB.Threads(), 5001))
		f.Run(2_000)
		f.RegisterOn(IslandA, apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 1460))
		f.Run(100_000)
	})
	if !strings.Contains(missed, "missed wake") || !strings.Contains(missed, "*host.F4TMachine") {
		t.Fatalf("checker reported %q, want a missed wake naming *host.F4TMachine", missed)
	}
}

// With one FPC's enqueue path no longer marking its cached next cycle
// stale, the engine's own check on the shadow kernel must catch the
// routed event sitting in that FPC, and name it.
func TestWakeDisciplineCatchesMissingFPCStaleMark(t *testing.T) {
	missed := shadowRun(t, func(t *testing.T, f sim.Fabric) {
		p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), nil)
		p.EngA.FPCs()[0].BreakEnqueueStaleMark()
		f.RegisterOn(IslandB, apps.NewSink(p.MachB.Threads(), 5001))
		f.Run(2_000)
		f.RegisterOn(IslandA, apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 1460))
		f.Run(100_000)
	})
	if !strings.Contains(missed, "missed FPC wake") || !strings.Contains(missed, " fpc 0 has work") {
		t.Fatalf("checker reported %q, want a missed FPC wake naming fpc 0", missed)
	}
}
