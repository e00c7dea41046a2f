package exp

import (
	"fmt"
	"strings"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
)

// These tests are the differential harness for the quiescence-skipping
// kernel: each workload is built twice — once on the skipping kernel,
// once with SetSkipping(false), the historical always-step loop — and
// the cycle-stamped counter streams must match bit for bit. Sampling
// runs off self-rechaining kernel timers, so both modes observe the
// counters at identical cycles.

// sampleEvery appends fn() to out every interval cycles, forever.
func sampleEvery(k *sim.Kernel, interval int64, fn func() string, out *[]string) {
	var re func()
	re = func() {
		*out = append(*out, fn())
		k.After(interval, re)
	}
	k.After(interval, re)
}

// diffRun executes the workload in both kernel modes and fails the test
// on the first diverging signature line. It returns the skipping run's
// kernel so callers can assert the fast path actually engaged.
func diffRun(t *testing.T, name string, workload func(skip bool) (string, *sim.Kernel)) *sim.Kernel {
	t.Helper()
	fastSig, fast := workload(true)
	slowSig, slow := workload(false)
	if n := slow.SkippedCycles(); n != 0 {
		t.Fatalf("%s: shadow mode skipped %d cycles", name, n)
	}
	if fastSig != slowSig {
		fastLines := strings.Split(fastSig, "\n")
		slowLines := strings.Split(slowSig, "\n")
		n := len(fastLines)
		if len(slowLines) < n {
			n = len(slowLines)
		}
		for i := 0; i < n; i++ {
			if fastLines[i] != slowLines[i] {
				t.Fatalf("%s: signatures diverge at line %d:\n  skip:   %s\n  shadow: %s", name, i, fastLines[i], slowLines[i])
			}
		}
		t.Fatalf("%s: signature lengths differ: skip=%d shadow=%d", name, len(fastLines), len(slowLines))
	}
	return fast
}

// f4tBulkSig: two-node F4T bulk transfer (the Fig 8a shape).
func f4tBulkSig(skip bool) (string, *sim.Kernel) {
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), nil)
	k := p.K
	k.SetSkipping(skip)
	sink := apps.NewSink(p.MachB.Threads(), 5001)
	k.Register(sink)
	k.Run(2_000)
	b := apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 1460)
	k.Register(b)

	var log []string
	sample := func() string {
		return fmt.Sprintf("c=%d req=%d bytes=%d del=%d atx=%d brx=%d cmds=%d comps=%d sent=%d drop=%d rdrop=%d",
			k.Now(), b.Requests.Total(), b.Bytes.Total(), sink.Delivered.Total(),
			p.EngA.TxPkts.Total(), p.EngB.RxPkts.Total(),
			p.EngA.CmdsProcessed.Total(), p.EngA.CompletionsSent.Total(),
			p.Link.AtoB.SentPkts, p.Link.AtoB.DroppedPkts, p.EngB.RxDropped.Total())
	}
	sampleEvery(k, 10_000, sample, &log)
	if !k.RunUntil(b.Ready, 500_000) {
		log = append(log, "NOT-READY")
	}
	log = append(log, "ready "+sample())
	k.Run(200_000)
	log = append(log, "end "+sample())
	return strings.Join(log, "\n"), k
}

// f4tRoundRobinFaultsSig: low-locality round-robin senders over a lossy,
// reordering link — loss recovery, retransmission timers and reordering
// all in play.
func f4tRoundRobinFaultsSig(skip bool) (string, *sim.Kernel) {
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), nil)
	k := p.K
	k.SetSkipping(skip)
	p.Link.AtoB.SetFaults(netsim.Faults{LossProb: 0.01, ReorderProb: 0.02, ReorderNS: 2_000})
	p.Link.BtoA.SetFaults(netsim.Faults{LossProb: 0.005})
	sink := apps.NewSink(p.MachB.Threads(), 5002)
	k.Register(sink)
	k.Run(2_000)
	rr := apps.NewRoundRobinSender(p.MachA.Threads(), 0, 5002, 1024, 4)
	k.Register(rr)

	var log []string
	sample := func() string {
		return fmt.Sprintf("c=%d req=%d del=%d atx=%d brx=%d drop=%d reord=%d nofl=%d",
			k.Now(), rr.Requests.Total(), sink.Delivered.Total(),
			p.EngA.TxPkts.Total(), p.EngB.RxPkts.Total(),
			p.Link.AtoB.DroppedPkts, p.Link.AtoB.ReorderPkts, p.EngB.RxNoFlow.Total())
	}
	sampleEvery(k, 10_000, sample, &log)
	if !k.RunUntil(rr.Ready, 500_000) {
		log = append(log, "NOT-READY")
	}
	log = append(log, "ready "+sample())
	k.Run(200_000)
	log = append(log, "end "+sample())
	return strings.Join(log, "\n"), k
}

// f4tEchoSig: the ping-pong workload of Fig 13 — mostly idle RTT waits,
// the skip kernel's showcase.
func f4tEchoSig(skip bool) (string, *sim.Kernel) {
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), func(c *engine.Config) {
		c.CarryBytes = false
	})
	k := p.K
	k.SetSkipping(skip)
	srv := apps.NewEchoServer(p.MachB.Threads(), 5003, 128)
	k.Register(srv)
	k.Run(2_000)
	cli := apps.NewEchoClient(k, p.MachA.Threads(), 0, 5003, 128, 4)
	k.Register(cli)

	var log []string
	sample := func() string {
		return fmt.Sprintf("c=%d req=%d lat_n=%d lat_mean=%.3f atx=%d btx=%d comps=%d",
			k.Now(), cli.Requests.Total(), cli.Latency.Count(), cli.Latency.Mean(),
			p.EngA.TxPkts.Total(), p.EngB.TxPkts.Total(), p.EngA.CompletionsSent.Total())
	}
	sampleEvery(k, 10_000, sample, &log)
	if !k.RunUntil(cli.Ready, 500_000) {
		log = append(log, "NOT-READY")
	}
	log = append(log, "ready "+sample())
	k.Run(400_000)
	log = append(log, "end "+sample())
	return strings.Join(log, "\n"), k
}

// f4tDctcpSig: DCTCP with ECN marking at the link — congestion marks,
// ECE echoes and window modulation must all land on identical cycles.
func f4tDctcpSig(skip bool) (string, *sim.Kernel) {
	p := NewF4TPair(1, 1, cpu.DefaultCosts(), func(c *engine.Config) {
		c.Alg = "dctcp"
		c.Proto.ECN = true
	})
	k := p.K
	k.SetSkipping(skip)
	p.Link.AtoB.SetAQM(netsim.ECNThreshold(1_000, 0))
	sink := apps.NewSink(p.MachB.Threads(), 5004)
	k.Register(sink)
	k.Run(2_000)
	b := apps.NewBulkSender(p.MachA.Threads(), 0, 5004, 1460)
	k.Register(b)

	var log []string
	sample := func() string {
		cwnd := uint32(0)
		if tcb := p.EngA.TCB(0); tcb != nil {
			cwnd = tcb.Cwnd
		}
		return fmt.Sprintf("c=%d req=%d del=%d marked=%d cwnd=%d atx=%d",
			k.Now(), b.Requests.Total(), sink.Delivered.Total(),
			p.Link.AtoB.MarkedPkts, cwnd, p.EngA.TxPkts.Total())
	}
	sampleEvery(k, 10_000, sample, &log)
	if !k.RunUntil(b.Ready, 500_000) {
		log = append(log, "NOT-READY")
	}
	log = append(log, "ready "+sample())
	k.Run(200_000)
	log = append(log, "end "+sample())
	return strings.Join(log, "\n"), k
}

// linuxBulkSig: the software-stack baseline — covers LinuxMachine's
// NextWork (RSS queues, stack timers) and the jittered CPU paths.
func linuxBulkSig(skip bool) (string, *sim.Kernel) {
	p := NewLinuxPair(2, 2, cpu.DefaultCosts())
	k := p.K
	k.SetSkipping(skip)
	sink := apps.NewSink(p.MachB.Threads(), 5005)
	k.Register(sink)
	k.Run(2_000)
	b := apps.NewBulkSender(p.MachA.Threads(), 0, 5005, 1460)
	k.Register(b)

	var log []string
	sample := func() string {
		return fmt.Sprintf("c=%d req=%d bytes=%d del=%d sent=%d rsent=%d rxfull=%d",
			k.Now(), b.Requests.Total(), b.Bytes.Total(), sink.Delivered.Total(),
			p.Link.AtoB.SentPkts, p.Link.BtoA.SentPkts, p.MachB.RxDroppedFull)
	}
	sampleEvery(k, 10_000, sample, &log)
	if !k.RunUntil(b.Ready, 300_000) {
		log = append(log, "NOT-READY")
	}
	log = append(log, "ready "+sample())
	k.Run(150_000)
	log = append(log, "end "+sample())
	return strings.Join(log, "\n"), k
}

// nginxSig: the §5.2 web rig — wrk's 64 keepalive flows from 16 client
// cores against the one-core HTTP server, on either substrate. Covers
// Wrk's ready set and HTTPServer's service queues, whose NextWork
// methods no other differential reaches.
func nginxSig(stackKind string) func(skip bool) (string, *sim.Kernel) {
	return func(skip bool) (string, *sim.Kernel) {
		costs := cpu.DefaultCosts()
		k := sim.New()
		k.SetSkipping(skip)
		r := newNginxRig(k, stackKind, 1, costs)
		wrk := apps.NewWrk(k, r.clientThreads, 0, nginxPort, 128, 256, nginxPerThread(64), costs)
		k.Register(wrk)

		var layer func() string
		if p := r.f4t; p != nil {
			layer = func() string {
				return fmt.Sprintf("atx=%d btx=%d brx=%d cmds=%d comps=%d",
					p.EngA.TxPkts.Total(), p.EngB.TxPkts.Total(), p.EngB.RxPkts.Total(),
					p.EngB.CmdsProcessed.Total(), p.EngB.CompletionsSent.Total())
			}
		} else {
			a, b := r.linux.MachA.Endpoint(), r.linux.MachB.Endpoint()
			layer = func() string {
				return fmt.Sprintf("atx=%d btx=%d brx=%d bev=%d",
					a.TxPkts, b.TxPkts, b.RxPkts, b.ProcessedEvents)
			}
		}
		var log []string
		sample := func() string {
			return fmt.Sprintf("c=%d resp=%d served=%d lat_n=%d %s",
				k.Now(), wrk.Responses.Total(), r.srv.Requests.Total(), wrk.Latency.Count(), layer())
		}
		sampleEvery(k, 10_000, sample, &log)
		if !k.RunUntil(wrk.Ready, 2_000_000) {
			log = append(log, "NOT-READY")
		}
		log = append(log, "ready "+sample())
		k.Run(400_000)
		log = append(log, "end "+sample())
		return strings.Join(log, "\n"), k
	}
}

func TestSkipDifferentialNginx(t *testing.T) {
	for _, stackKind := range []string{"f4t", "linux"} {
		t.Run(stackKind, func(t *testing.T) {
			var sig string
			k := diffRun(t, "nginx-"+stackKind, func(skip bool) (string, *sim.Kernel) {
				s, k := nginxSig(stackKind)(skip)
				if skip {
					sig = s
				}
				return s, k
			})
			if strings.Contains(sig, "NOT-READY") || k.SkippedCycles() == 0 {
				t.Fatalf("web rig did not ramp or never skipped (%d cycles skipped)", k.SkippedCycles())
			}
		})
	}
}

func TestSkipDifferentialF4TBulk(t *testing.T) {
	// Deterministic: the saturated sender sleeps through its FPCs' TX
	// backpressure and its full command-fetch pipeline, so the rig skips
	// ~48 % of its cycles (96 653 of 202 582); polling either gate every
	// cycle skipped 2.2 % (4 455).
	k := diffRun(t, "f4t-bulk", f4tBulkSig)
	if skipped, ran := k.SkippedCycles(), k.Now(); 10*skipped < 4*ran {
		t.Errorf("bulk workload skipped %d of %d cycles, want >= 40%%", skipped, ran)
	}
}

func TestSkipDifferentialRoundRobinFaults(t *testing.T) {
	diffRun(t, "f4t-rr-faults", f4tRoundRobinFaultsSig)
}

func TestSkipDifferentialEcho(t *testing.T) {
	// Deterministic: the rig skips ~76 % of its cycles (321 901 of 423 k).
	// Under half means quiescence detection regressed, not merely that
	// the fast path engaged at all.
	k := diffRun(t, "f4t-echo", f4tEchoSig)
	if skipped, ran := k.SkippedCycles(), k.Now(); 2*skipped < ran {
		t.Errorf("echo workload skipped %d of %d cycles, want >= 50%%", skipped, ran)
	}
}

func TestSkipDifferentialDCTCP(t *testing.T) {
	diffRun(t, "f4t-dctcp", f4tDctcpSig)
}

func TestSkipDifferentialLinuxBulk(t *testing.T) {
	diffRun(t, "linux-bulk", linuxBulkSig)
}

// TestSkipDeterminism: two identical skipping runs must agree exactly —
// cycle skipping must not introduce any run-to-run nondeterminism.
func TestSkipDeterminism(t *testing.T) {
	a, _ := f4tEchoSig(true)
	b, _ := f4tEchoSig(true)
	if a != b {
		t.Fatal("two identical skipping runs diverged")
	}
}
