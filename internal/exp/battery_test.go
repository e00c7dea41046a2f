package exp

import (
	"fmt"
	"strings"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// The rig-family battery: every family below runs once through
// simtest.FabricMatrix — the skipping serial kernel, the shadow kernel
// (which checks the wake discipline on every cycle and panics on a
// missed wake, naming the component) and the sharded fabric — and its
// sampled counter log must match line for line. The TestSkipDifferential
// tests carry the sampled workloads and the skip floors;
// TestWakeDiscipline carries the families no sampled workload reaches.
// The families whose rigs have a battery of their own (conformance,
// churn, the topology rigs, fairness, the facade) are not repeated here.

// sampleWindow is the battery's observation grid: each family logs one
// line per window, stamped with its cycle, so a divergence report names
// the window. The log is read between Run calls, when no shard is
// running, so it may read both islands.
const sampleWindow = 10_000

// sampler logs line() on the sampleWindow grid while it drives f.
type sampler struct {
	f    sim.Fabric
	line func() string
	log  []string
}

func (s *sampler) sample() {
	s.log = append(s.log, fmt.Sprintf("c=%d %s", s.f.Now(), s.line()))
}

// until samples and runs windows until ready holds on the grid or budget
// cycles pass, logging NOT-READY then.
func (s *sampler) until(ready func() bool, budget int64) bool {
	ok := RunUntilCoarse(s.f, func() bool { s.sample(); return ready() }, sampleWindow, budget)
	if !ok {
		s.log = append(s.log, "NOT-READY")
	}
	return ok
}

// run runs n more cycles, sampling after each window, and returns the log.
func (s *sampler) run(n int64) string {
	for end := s.f.Now() + n; s.f.Now() < end; {
		s.f.Run(min(sampleWindow, end-s.f.Now()))
		s.sample()
	}
	return strings.Join(s.log, "\n")
}

// f4tLayer reads an F4T pair's engine and link counters.
func f4tLayer(p *F4TPair) func() string {
	return func() string {
		cwnd := uint32(0)
		if tcb := p.EngA.TCB(0); tcb != nil {
			cwnd = tcb.Cwnd
		}
		a, b, l := p.EngA, p.EngB, p.Link
		return fmt.Sprintf("atx=%d arx=%d btx=%d brx=%d cmds=%d/%d comps=%d/%d rdrop=%d nofl=%d sent=%d/%d drop=%d/%d reord=%d marked=%d cwnd=%d",
			a.TxPkts.Total(), a.RxPkts.Total(), b.TxPkts.Total(), b.RxPkts.Total(),
			a.CmdsProcessed.Total(), b.CmdsProcessed.Total(), a.CompletionsSent.Total(), b.CompletionsSent.Total(),
			b.RxDropped.Total(), b.RxNoFlow.Total(), l.AtoB.SentPkts, l.BtoA.SentPkts,
			l.AtoB.DroppedPkts, l.BtoA.DroppedPkts, l.AtoB.ReorderPkts, l.AtoB.MarkedPkts, cwnd)
	}
}

// linuxLayer reads a Linux pair's endpoint and link counters.
func linuxLayer(p *LinuxPair) func() string {
	return func() string {
		a, b := p.MachA.Endpoint(), p.MachB.Endpoint()
		return fmt.Sprintf("atx=%d btx=%d brx=%d aev=%d bev=%d sent=%d/%d rxfull=%d",
			a.TxPkts, b.TxPkts, b.RxPkts, a.ProcessedEvents, b.ProcessedEvents,
			p.Link.AtoB.SentPkts, p.Link.BtoA.SentPkts, p.MachB.RxDroppedFull)
	}
}

// transfer drives a sink/sender family from threads a on island src to
// threads b on island dst: a sink on b, then one bulk flow or four
// round-robin flows per sending thread, sampled up to the sender's ready
// point (within budget) and for measure cycles after it. The sink must
// receive something.
func transfer(t *testing.T, f sim.Fabric, src int, a []host.Thread, dst int, b []host.Thread, roundRobin bool, budget, measure int64, layer func() string) string {
	sink := apps.NewSink(b, 5001)
	f.RegisterOn(dst, sink)
	f.Run(2_000)
	var ready func() bool
	var req, bytes *sim.Counter
	if roundRobin {
		s := apps.NewRoundRobinSender(a, 0, 5001, 1024, 4)
		f.RegisterOn(src, s)
		ready, req, bytes = s.Ready, &s.Requests, &s.Bytes
	} else {
		s := apps.NewBulkSender(a, 0, 5001, 1460)
		f.RegisterOn(src, s)
		ready, req, bytes = s.Ready, &s.Requests, &s.Bytes
	}
	s := &sampler{f: f, line: func() string {
		return fmt.Sprintf("req=%d bytes=%d del=%d %s", req.Total(), bytes.Total(), sink.Delivered.Total(), layer())
	}}
	s.until(ready, budget)
	log := s.run(measure)
	if sink.Delivered.Total() == 0 {
		t.Error("nothing delivered")
	}
	return log
}

// f4tTransfer is transfer on an F4T pair with cores per host; mutate
// adjusts both engines and setup the built pair's link (faults, AQM).
func f4tTransfer(t *testing.T, f sim.Fabric, cores int, roundRobin bool, mutate func(*engine.Config), setup func(*netsim.Link)) string {
	p := NewF4TPairOn(f, cores, cores, cpu.DefaultCosts(), mutate)
	if setup != nil {
		setup(p.Link)
	}
	return transfer(t, f, IslandA, p.MachA.Threads(), IslandB, p.MachB.Threads(), roundRobin, 500_000, 200_000, f4tLayer(p))
}

// f4tEcho is the Fig 13 ping-pong family on an F4T pair: an echo server
// on B, then flowsPerThread 128 B echo flows per A thread, sampled up to
// the ramp's end (within budget) and for measure cycles after it.
func f4tEcho(f sim.Fabric, mutate func(*engine.Config), flowsPerThread int, budget, measure int64) (*F4TPair, string) {
	p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), mutate)
	f.RegisterOn(IslandB, apps.NewEchoServer(p.MachB.Threads(), 9001, 128))
	f.Run(2_000)
	cli := apps.NewEchoClient(p.KA, p.MachA.Threads(), 0, 9001, 128, flowsPerThread)
	f.RegisterOn(IslandA, cli)
	layer := f4tLayer(p)
	s := &sampler{f: f, line: func() string {
		return fmt.Sprintf("req=%d lat_n=%d lat_mean=%.3f swapins=%d %s", cli.Requests.Total(), cli.Latency.Count(),
			cli.Latency.Mean(), p.EngA.Scheduler().SwapIns.Total(), layer())
	}}
	s.until(cli.Ready, budget)
	return p, s.run(measure)
}

func echoRow(t *testing.T, f sim.Fabric) string {
	_, log := f4tEcho(f, func(c *engine.Config) { c.CarryBytes = false }, 4, 500_000, 400_000)
	return log
}

// nginx is the §5.2 web family: wrk's 64 keepalive flows from 16 client
// cores against an HTTP server on serverCores cores, on either
// substrate. It covers Wrk's ready set and HTTPServer's service queues.
func nginx(stackKind string, serverCores int) func(*testing.T, sim.Fabric) string {
	return func(t *testing.T, f sim.Fabric) string {
		costs := cpu.DefaultCosts()
		r := newNginxRig(f, stackKind, serverCores, costs)
		wrk := apps.NewWrk(f.IslandKernel(IslandA), r.clientThreads, 0, nginxPort, 128, 256, nginxPerThread(64), costs)
		f.RegisterOn(IslandA, wrk)
		layer := linuxLayer(r.linux)
		if r.f4t != nil {
			layer = f4tLayer(r.f4t)
		}
		s := &sampler{f: f, line: func() string {
			return fmt.Sprintf("resp=%d served=%d lat_n=%d %s",
				wrk.Responses.Total(), r.srv.Requests.Total(), wrk.Latency.Count(), layer())
		}}
		if !s.until(wrk.Ready, 2_000_000) {
			t.Error("web rig did not ramp")
		}
		return s.run(400_000)
	}
}

// family runs a rig family once through simtest.FabricMatrix. Its
// serial row must skip some cycles, and at least minSkipPct % of them.
func family(t *testing.T, minSkipPct int64, run func(*testing.T, sim.Fabric) string) {
	var serial *sim.Kernel
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		if serial == nil {
			serial = f.(*sim.Kernel) // FabricMatrix runs the serial row first
		}
		return run(t, f)
	})
	skipped, ran := serial.SkippedCycles(), serial.Now()
	t.Logf("serial row skipped %d of %d cycles (%.1f %%)", skipped, ran, 100*float64(skipped)/float64(ran))
	if skipped == 0 || 100*skipped < minSkipPct*ran {
		t.Errorf("serial row skipped %d of %d cycles, want > 0 and >= %d%%", skipped, ran, minSkipPct)
	}
}

// lossyAtoB puts the faulty pairs' loss and reordering (up to 2 µs) on
// the A→B link.
func lossyAtoB(l *netsim.Link) {
	l.AtoB.SetFaults(netsim.Faults{LossProb: 0.01, ReorderProb: 0.02, ReorderNS: 2_000})
}

// Fig 8a bulk. The saturated sender sleeps through its FPCs' TX
// backpressure and its full command-fetch pipeline: the serial row
// skips 48 % of its cycles (101 654 of 212 000).
func TestSkipDifferentialF4TBulk(t *testing.T) {
	family(t, 40, func(t *testing.T, f sim.Fabric) string { return f4tTransfer(t, f, 2, false, nil, nil) })
}

// Low-locality round-robin senders with loss both ways and reordering.
func TestSkipDifferentialRoundRobinFaults(t *testing.T) {
	family(t, 0, func(t *testing.T, f sim.Fabric) string {
		return f4tTransfer(t, f, 2, true, nil, func(l *netsim.Link) {
			lossyAtoB(l)
			l.BtoA.SetFaults(netsim.Faults{LossProb: 0.005})
		})
	})
}

// Fig 13's ping-pong: mostly idle RTT waits, the skipping kernel's
// showcase (81 % skipped, 334 370 of 412 000). Under half skipped means
// quiescence detection regressed.
func TestSkipDifferentialEcho(t *testing.T) { family(t, 50, echoRow) }

// DCTCP with ECN marking at the link: marks, ECE echoes and window
// modulation must all land on identical cycles.
func TestSkipDifferentialDCTCP(t *testing.T) {
	family(t, 0, func(t *testing.T, f sim.Fabric) string {
		return f4tTransfer(t, f, 1, false, func(c *engine.Config) {
			c.Alg = "dctcp"
			c.Proto.ECN = true
		}, func(l *netsim.Link) { l.AtoB.SetAQM(netsim.ECNThreshold(1_000, 0)) })
	})
}

// The software-stack baseline: LinuxMachine's NextWork (RSS queues,
// stack timers) and the jittered CPU paths.
func TestSkipDifferentialLinuxBulk(t *testing.T) {
	family(t, 0, func(t *testing.T, f sim.Fabric) string { return linuxTransfer(t, f, false) })
}

// The web rig against a one-core server, on both stacks.
func TestSkipDifferentialNginx(t *testing.T) {
	t.Run("f4t", func(t *testing.T) { family(t, 0, nginx("f4t", 1)) })
	t.Run("linux", func(t *testing.T) { family(t, 0, nginx("linux", 1)) })
}

// linuxTransfer is transfer's bulk flow on a Linux pair, over a lossy
// A→B link when lossy is set.
func linuxTransfer(t *testing.T, f sim.Fabric, lossy bool) string {
	p := NewLinuxPairOn(f, 2, 2, cpu.DefaultCosts())
	if lossy {
		lossyAtoB(p.Link)
	}
	return transfer(t, f, IslandA, p.MachA.Threads(), IslandB, p.MachB.Threads(), false, 300_000, 150_000, linuxLayer(p))
}

// TestWakeDiscipline holds the families that no sampled workload above
// reaches: fault recovery on either stack, a two-core web server, the
// swap path and the router star.
func TestWakeDiscipline(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(*testing.T, sim.Fabric) string
	}{
		// Bulk over the lossy, reordering link: loss recovery and
		// retransmission timers, on either stack.
		{"pair-bulk-f4t", func(t *testing.T, f sim.Fabric) string { return f4tTransfer(t, f, 2, false, nil, lossyAtoB) }},
		{"pair-bulk-linux", func(t *testing.T, f sim.Fabric) string { return linuxTransfer(t, f, true) }},
		// Round-robin senders with faults on the data path only.
		{"pair-rr-f4t", func(t *testing.T, f sim.Fabric) string { return f4tTransfer(t, f, 2, true, nil, lossyAtoB) }},
		// The web rig against the two-core server.
		{"nginx-f4t", nginx("f4t", 2)},
		{"nginx-linux", nginx("linux", 2)},
		// 128 flows over 32 DDR slots: every round trip swaps.
		{"echo-swap", func(t *testing.T, f sim.Fabric) string {
			p, log := f4tEcho(f, func(c *engine.Config) {
				c.Memory = memmgr.DDR
				c.CarryBytes = false
				c.NumFPCs, c.SlotsPerFPC = 2, 16
			}, 64, 2_000_000, 200_000)
			if p.EngA.Scheduler().SwapIns.Total() == 0 {
				t.Error("no swap-ins: the rig does not exercise the swap path")
			}
			return log
		}},
		// RoundRobinSender through a router star.
		{"core-star-rr", func(t *testing.T, f sim.Fabric) string {
			r := NewF4TStarOn(f, []int{1, 2}, cpu.DefaultCosts(), netsim.DropTail(0), nil)
			return transfer(t, f, 1, r.Machs[1].Threads(), 0, r.Machs[0].Threads(), true, 500_000, 200_000, func() string {
				return fmt.Sprintf("tx=%d rx=%d", r.Engines[1].TxPkts.Total(), r.Engines[0].RxPkts.Total())
			})
		}},
	} {
		t.Run(row.name, func(t *testing.T) { family(t, 0, row.run) })
	}
}

// TestSkipDeterminism: two identical skipping runs must agree exactly —
// cycle skipping must not introduce any run-to-run nondeterminism.
func TestSkipDeterminism(t *testing.T) {
	if echoRow(t, sim.New()) != echoRow(t, sim.New()) {
		t.Fatal("two identical skipping runs diverged")
	}
}
