package main

import (
	"fmt"
	"hash/fnv"

	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/fpc"
	"f4t/internal/exp"
	"f4t/internal/host"
	"f4t/internal/hostif"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// The pair builders below are exp.NewF4TPairOn / exp.NewLinuxPairOn with
// the hard-wired seeds offset by the benchmark seed: same construction
// order, same registration slots, so seed 0 reproduces the exp builders bit
// for bit (selfcheck.go verifies that on every seed-0 run).

func newF4TPair(f sim.Fabric, coresA, coresB int, costs cpu.Costs, seed uint64, mutate func(*engine.Config)) *exp.F4TPair {
	kA, kB := f.IslandKernel(exp.IslandA), f.IslandKernel(exp.IslandB)
	link := netsim.NewLinkOn(f, exp.IslandA, exp.IslandB, exp.LinkGbps, exp.LinkPropNS, 1234+seed)

	cfg := engine.DefaultConfig()
	cfg.Channels = coresA
	if mutate != nil {
		mutate(&cfg)
	}
	cfgA := cfg
	cfgA.IP, cfgA.MAC, cfgA.Seed, cfgA.Channels = exp.AddrA, exp.MACA, 101+seed, coresA
	cfgB := cfg
	cfgB.IP, cfgB.MAC, cfgB.Seed, cfgB.Channels = exp.AddrB, exp.MACB, 202+seed, coresB

	engA := engine.New(kA, cfgA, link.AtoB.Send)
	engB := engine.New(kB, cfgB, link.BtoA.Send)
	link.AtoB.SetSink(engB.DeliverPacket)
	link.BtoA.SetSink(engA.DeliverPacket)
	engA.LearnPeer(exp.AddrB, exp.MACB)
	engB.LearnPeer(exp.AddrA, exp.MACA)

	machA := host.NewF4TMachine(kA, engA, coresA, costs, []wire.Addr{exp.AddrB})
	machB := host.NewF4TMachine(kB, engB, coresB, costs, []wire.Addr{exp.AddrA})

	f.RegisterOn(exp.IslandA, engA)
	f.RegisterOn(exp.IslandB, engB)
	f.RegisterOn(exp.IslandA, machA)
	f.RegisterOn(exp.IslandB, machB)
	// K is set from the island kernel, not by asserting f: the traced
	// fabric is not a *sim.Kernel, and exp.InstrumentF4TPair needs K.
	return &exp.F4TPair{R: f, K: kA, KA: kA, KB: kB, Link: link, EngA: engA, EngB: engB, MachA: machA, MachB: machB}
}

func newLinuxPair(f sim.Fabric, coresA, coresB int, costs cpu.Costs, seed uint64) *exp.LinuxPair {
	kA, kB := f.IslandKernel(exp.IslandA), f.IslandKernel(exp.IslandB)
	link := netsim.NewLinkOn(f, exp.IslandA, exp.IslandB, exp.LinkGbps, exp.LinkPropNS, 5678+seed)

	optA := stack.Options{IP: exp.AddrA, MAC: exp.MACA, Cfg: tcpproc.DefaultConfig(), Alg: "cubic", MaxFlows: 70000, Seed: 11 + seed}
	optB := stack.Options{IP: exp.AddrB, MAC: exp.MACB, Cfg: tcpproc.DefaultConfig(), Alg: "cubic", MaxFlows: 70000, Seed: 22 + seed}

	machA := host.NewLinuxMachine(kA, optA, coresA, costs, []wire.Addr{exp.AddrB}, link.AtoB.Send)
	machB := host.NewLinuxMachine(kB, optB, coresB, costs, []wire.Addr{exp.AddrA}, link.BtoA.Send)
	machA.Endpoint().LearnPeer(exp.AddrB, exp.MACB)
	machB.Endpoint().LearnPeer(exp.AddrA, exp.MACA)
	link.AtoB.SetSink(machB.DeliverPacket)
	link.BtoA.SetSink(machA.DeliverPacket)

	f.RegisterOn(exp.IslandA, machA)
	f.RegisterOn(exp.IslandB, machB)
	return &exp.LinuxPair{R: f, K: kA, KA: kA, KB: kB, Link: link, MachA: machA, MachB: machB}
}

// counters is a flat, ordered list of named simulated counters read from a
// rig's public fields. The same list feeds the window deltas of the
// per-layer metrics and the sim_digest.
type counters struct {
	names  []string
	vals   []int64
	sealed int // counters past this index are read in the traced run only and stay out of the digest
}

// seal ends the digested part of the list.
func (c *counters) seal() { c.sealed = len(c.names) }

func (c *counters) add(name string, v int64) {
	c.names = append(c.names, name)
	c.vals = append(c.vals, v)
}

func (c *counters) get(name string) int64 {
	for i, n := range c.names {
		if n == name {
			return c.vals[i]
		}
	}
	return 0
}

// sub returns c - start, counter by counter.
func (c *counters) sub(start *counters) *counters {
	out := &counters{names: c.names, vals: make([]int64, len(c.vals)), sealed: c.sealed}
	for i := range c.vals {
		out.vals[i] = c.vals[i] - start.vals[i]
	}
	return out
}

// digest hashes every counter with its name; two runs that did the same
// simulated work print the same digest.
func (c *counters) digest() string {
	h := fnv.New64a()
	for i, n := range c.names[:c.sealed] {
		fmt.Fprintf(h, "%s=%d;", n, c.vals[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// readEngines sums the public counters of a pair's two engines.
func readEngines(c *counters, p *exp.F4TPair) {
	engs := []*engine.Engine{p.EngA, p.EngB}
	sum := func(name string, f func(e *engine.Engine) int64) {
		var s int64
		for _, e := range engs {
			s += f(e)
		}
		c.add(name, s)
	}
	sum("engine.cmds_processed", func(e *engine.Engine) int64 { return e.CmdsProcessed.Total() })
	sum("engine.rx_pkts", func(e *engine.Engine) int64 { return e.RxPkts.Total() })
	sum("engine.tx_pkts", func(e *engine.Engine) int64 { return e.TxPkts.Total() })
	sum("engine.retrans_segs", func(e *engine.Engine) int64 { return e.RetransSegs.Total() })
	sum("engine.rx_dropped", func(e *engine.Engine) int64 { return e.RxDropped.Total() })
	sum("engine.rx_no_flow", func(e *engine.Engine) int64 { return e.RxNoFlow.Total() })
	sum("engine.flows_rejected", func(e *engine.Engine) int64 { return e.FlowsRejected.Total() })
	sum("engine.flows_accepted", func(e *engine.Engine) int64 { return e.FlowsAccepted.Total() })
	sum("engine.completions_sent", func(e *engine.Engine) int64 { return e.CompletionsSent.Total() })
	sum("sched.routed", func(e *engine.Engine) int64 { return e.Scheduler().Routed.Total() })
	sum("sched.coalesced", func(e *engine.Engine) int64 { return e.Scheduler().Coalesced.Total() })
	sum("sched.backpressure", func(e *engine.Engine) int64 { return e.Scheduler().Backpressure.Total() })
	sum("sched.migrations", func(e *engine.Engine) int64 { return e.Scheduler().Migrations.Total() })
	sum("sched.swap_ins", func(e *engine.Engine) int64 { return e.Scheduler().SwapIns.Total() })
	sum("sched.dropped_events", func(e *engine.Engine) int64 { return e.Scheduler().DroppedEvents.Total() })
	overFPCs := func(pick func(f *fpc.FPC) int64) func(e *engine.Engine) int64 {
		return func(e *engine.Engine) (s int64) {
			for _, f := range e.FPCs() {
				s += pick(f)
			}
			return s
		}
	}
	overChannels := func(pick func(ch *hostif.Channel) int64) func(e *engine.Engine) int64 {
		return func(e *engine.Engine) (s int64) {
			for _, ch := range e.Channels {
				s += pick(ch)
			}
			return s
		}
	}
	sum("fpc.events_handled", overFPCs(func(f *fpc.FPC) int64 { return f.EventsHandled.Total() }))
	sum("fpc.processed", overFPCs(func(f *fpc.FPC) int64 { return f.Processed.Total() }))
	sum("fpc.stalls", overFPCs(func(f *fpc.FPC) int64 { return f.Stalls.Total() }))
	sum("memmgr.cache_hits", func(e *engine.Engine) int64 { return e.Mem().CacheHits.Total() })
	sum("memmgr.cache_miss", func(e *engine.Engine) int64 { return e.Mem().CacheMiss.Total() })
	sum("memmgr.swap_reqs", func(e *engine.Engine) int64 { return e.Mem().SwapReqs.Total() })
	sum("hostif.cmds_posted", overChannels(func(ch *hostif.Channel) int64 { return ch.Posted }))
	sum("hostif.cmds_fetched", overChannels(func(ch *hostif.Channel) int64 { return ch.Fetched }))
	sum("hostif.completed", overChannels(func(ch *hostif.Channel) int64 { return ch.Completed }))
	sum("hostif.pcie_wire_bytes_to_device", func(e *engine.Engine) int64 { return e.PCIe.WireBytesToDevice })
	sum("hostif.pcie_wire_bytes_to_host", func(e *engine.Engine) int64 { return e.PCIe.WireBytesToHost })
}

// readEndpoints sums the public counters of a Linux pair's two stacks.
func readEndpoints(c *counters, p *exp.LinuxPair) {
	a, b := p.MachA.Endpoint(), p.MachB.Endpoint()
	c.add("stack.rx_pkts", a.RxPkts+b.RxPkts)
	c.add("stack.tx_pkts", a.TxPkts+b.TxPkts)
	c.add("stack.processed_events", a.ProcessedEvents+b.ProcessedEvents)
	c.add("stack.flows_rejected", a.FlowsRejected+b.FlowsRejected)
	c.add("stack.rx_no_flow", a.RxNoFlow+b.RxNoFlow)
	c.add("stack.rx_dropped", a.RxDropped+b.RxDropped+p.MachA.RxDroppedFull+p.MachB.RxDroppedFull)
}

func readLink(c *counters, l *netsim.Link) {
	c.add("netsim.link_sent_pkts", l.AtoB.SentPkts+l.BtoA.SentPkts)
	c.add("netsim.link_sent_bytes", l.AtoB.SentBytes+l.BtoA.SentBytes)
	c.add("netsim.link_dropped_pkts", l.AtoB.DroppedPkts+l.BtoA.DroppedPkts)
}

// readLibs sums the F4T library gauges of both machines out of the traced
// run's registry (the library counters have no other public reader).
func readLibs(c *counters, reg *telemetry.Registry) {
	for _, g := range []string{"cmds_posted", "comps_processed", "post_failures"} {
		var s int64
		for _, m := range []string{"mach_a", "mach_b"} {
			for t := 0; ; t++ {
				v, ok := reg.Value(fmt.Sprintf("%s.t%d.lib.%s", m, t, g))
				if !ok {
					break
				}
				s += v
			}
		}
		c.add("host."+g, s)
	}
}
