package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// outDir receives the traced run's span files, relative to the working
// directory (bench/ under the declared command).
const outDir = "out"

// Link and PCIe rates used to turn byte counters into utilisation.
const (
	pairLinkGbps  = 100
	churnLinkGbps = 400
	pcieGBps      = 14
)

// layerValues assembles every per-layer metric of the traced run, and the
// closure error: how far the sampled per-step attribution, scaled to all
// stepped cycles, is from the traced window's wall time (note spells the
// comparison out).
func layerValues(base, tr *result, ht *hostTracer, drivers map[string]float64) (m map[string]float64, closure float64, note string) {
	m = map[string]float64{}
	for k, v := range tr.layer {
		m[k] = v
	}
	for k, v := range drivers {
		m[k] = v
	}
	d := tr.delta
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Counts over the window, straight from the rig's public counters.
	for _, n := range []string{
		"engine.cmds_processed", "engine.rx_pkts", "engine.tx_pkts", "engine.retrans_segs", "engine.rx_dropped", "engine.flows_rejected",
		"sched.routed", "sched.coalesced", "sched.backpressure", "sched.migrations", "sched.swap_ins", "sched.dropped_events",
		"fpc.events_handled", "fpc.processed", "fpc.stalls",
		"memmgr.cache_hits", "memmgr.cache_miss", "memmgr.swap_reqs",
		"hostif.cmds_fetched", "host.cmds_posted", "host.comps_processed",
		"netsim.link_sent_pkts", "netsim.link_sent_bytes", "netsim.link_dropped_pkts",
		"stack.rx_pkts", "stack.tx_pkts", "stack.processed_events", "stack.flows_rejected",
		"datapath.cuckoo_kicks", "datapath.cuckoo_resizes", "datapath.cuckoo_fulldrops",
	} {
		m[n] = float64(d.get(n))
	}
	m["host.post_retry_ratio"] = ratio(float64(d.get("host.post_failures")), float64(d.get("host.cmds_posted")+d.get("host.post_failures")))
	m["sched.coalesce_ratio"] = ratio(m["sched.coalesced"], m["sched.routed"]+m["sched.coalesced"])
	m["fpc.events_per_pass"] = ratio(m["fpc.events_handled"], m["fpc.processed"])
	m["memmgr.hit_ratio"] = ratio(m["memmgr.cache_hits"], m["memmgr.cache_hits"]+m["memmgr.cache_miss"])

	sec := tr.simSeconds()
	linkGbps := float64(pairLinkGbps)
	if tr.workload == "churn_plateau" {
		linkGbps = churnLinkGbps
	}
	// Two directions share the byte counter, so full duplex is 200 %/2.
	m["netsim.link_util_pct"] = 100 * m["netsim.link_sent_bytes"] * 8 / (2 * linkGbps * 1e9 * sec)
	// Both engines' PCIe links share each counter.
	m["hostif.pcie_util_to_device_pct"] = 100 * float64(d.get("hostif.pcie_wire_bytes_to_device")) / (2 * pcieGBps * 1e9 * sec)
	m["hostif.pcie_util_to_host_pct"] = 100 * float64(d.get("hostif.pcie_wire_bytes_to_host")) / (2 * pcieGBps * 1e9 * sec)

	// Simulated spans from the rig's own trace ring.
	durs := map[string]*sim.Histogram{"cmd.fetch": {}, "comp.dma": {}, "fpu.pass": {}, "pkt": {}}
	for _, ev := range tr.simTrace.Events() {
		if h := durs[ev.Name]; h != nil && !ev.Instant {
			h.Observe(ev.DurNS)
		}
	}
	m["hostif.cmd_fetch_sim_ns_p50"] = float64(durs["cmd.fetch"].Median())
	m["hostif.cmd_fetch_sim_ns_p99"] = float64(durs["cmd.fetch"].P99())
	m["hostif.completion_sim_ns_p50"] = float64(durs["comp.dma"].Median())
	m["fpc.fpu_pass_sim_ns_p50"] = float64(durs["fpu.pass"].Median())
	m["netsim.wire_sim_ns_p50"] = float64(durs["pkt"].Median())

	// Host time per stepped cycle, from the sampled iterations.
	w := &tr.win
	lt := ht.attribute(w.stepped)
	for _, layer := range []string{"engine", "host", "apps", "stack"} {
		m[layer+".tick_ns_per_step"] = lt.tickNS[layer]
	}
	m["sim.nextwork_ns_per_step"] = lt.nextworkNS
	m["netsim.sink_ns_per_step"] = lt.sinkNS
	m["sim.kernel_ns_per_step"] = lt.kernelNS
	m["engine.host_ns_per_pkt"] = ratio(lt.tickNS["engine"]*float64(w.stepped), m["engine.rx_pkts"]+m["engine.tx_pkts"])
	m["sim.stepped_cycles"] = float64(w.stepped)
	m["sim.skipped_pct"] = w.skippedPct()
	m["sim.skipped_pct_untraced"] = base.win.skippedPct()
	m["sim.skips"] = float64(w.skips)

	parts := lt.nextworkNS + lt.sinkNS
	for _, v := range lt.tickNS {
		parts += v
	}
	// Closure: sampled step cost x stepped cycles against the wall clock.
	closure = 100 * math.Abs(lt.stepNS*float64(w.stepped)-float64(w.wallNS)) / float64(w.wallNS)
	m["telemetry.closure_err_pct"] = closure
	note = fmt.Sprintf("closure: sampled step %.1f ns x %d stepped = %.3f s, traced window wall %.3f s, off by %.2f %% (%d of %d iterations sampled, %d readings left out as interference; timed section %.0f ns in place; components+scan+sinks read %.1f ns, %.1f %% of the step)",
		lt.stepNS, w.stepped, lt.stepNS*float64(w.stepped)/1e9, float64(w.wallNS)/1e9, closure, ht.sampled, ht.iters, lt.hiccups, lt.timerNS, parts, 100*parts/lt.stepNS)

	m["telemetry.overhead_pct"] = 100 * (tr.win.nsPerCycle() - base.win.nsPerCycle()) / base.win.nsPerCycle()
	m["telemetry.metrics_registered"] = float64(tr.metricsRegistered)
	m["telemetry.trace_events"] = float64(tr.simTrace.Total()) + float64(len(ht.spans))
	m["telemetry.trace_dropped"] = float64(tr.simTrace.Dropped()) + float64(ht.spansDropped)
	return m, closure, note
}

// writeTraces writes the traced run's spans at the end of the run:
// out/trace-<workload>.json holds the host-time spans (sampled kernel
// iterations and the component calls inside them, with parent ids) and
// out/simtrace-<workload>.json the rig's simulated-time trace where the
// rig has one. Both are Chrome trace-event JSON and load in Perfetto.
func writeTraces(tr *result, ht *hostTracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "trace-"+tr.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"workload\":%q,\"seed\":%d,\"traceEvents\":[\n", tr.workload, tr.seed)
	for i, s := range ht.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, `{"ph":"X","pid":1,"tid":1,"cat":"host","name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"workload":%q}}`,
			s.Name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, s.Parent, tr.workload)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("info %s wrote %d host spans to %s\n", tr.workload, len(ht.spans), path)

	if tr.simTrace == nil {
		return nil
	}
	path = filepath.Join(outDir, "simtrace-"+tr.workload+".json")
	f, err = os.Create(path)
	if err != nil {
		return err
	}
	// The sampler's counter tracks are left out: thousands of points for
	// each of a few hundred metrics would dwarf the spans.
	var noSampler *telemetry.Sampler
	if err := tr.simTrace.Export(f, noSampler); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("info %s wrote %d simulated spans to %s\n", tr.workload, tr.simTrace.Len(), path)
	return nil
}
