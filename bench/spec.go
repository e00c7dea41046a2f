package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricSpec names one metric, its unit and the direction that is better.
// Bound is the share of the parent's median by which an end-to-end metric
// may get worse before a change counts as a regression (0 = unbounded).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The ten end-to-end metrics. Every workload reports those that apply to
// it; the rest read 0 there. The first five apply everywhere and are never
// 0, so they are the bounded `end_to_end` list of BENCHMARK.json. The other
// five are 0 on some workload (no payload on churn_plateau, no latency on
// bulk_sat, fail_ratio 0 everywhere), which the driver's contract forbids
// for a bounded metric, so BENCHMARK.json carries them at the head of
// `per_layer`. They are simulated values and therefore identical in the
// traced and untraced runs (the digest check enforces that).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_ns_per_sim_cycle", "ns", "lower", 0.25},
	{"host_allocs_per_sim_kcycle", "objects", "lower", 0.05},
	{"host_heap_mb", "MB", "lower", 0.05},
	{"sim_ops_per_s", "1/s", "higher", 0.03},
	{"sim_goodput_gbps", "Gbps", "higher", 0.03},
	{"sim_lat_p50_ns", "ns", "lower", 0.01},
	{"sim_lat_p99_ns", "ns", "lower", 0.01},
	{"fail_ratio", "ratio", "lower", 0.01},
	{"sim_paper_err_pct", "%", "lower", 0.01},
}

// boundedEndToEnd is how many of endToEnd are in BENCHMARK.json's
// end_to_end list; the rest lead its per_layer list.
const boundedEndToEnd = 5

// perLayer lists the traced run's layer metrics; the prefix is the module.
var perLayer = []metricSpec{
	{"sim.stepped_cycles", "count", "lower", 0},
	{"sim.skipped_pct", "%", "higher", 0},
	{"sim.skipped_pct_untraced", "%", "higher", 0},
	{"sim.skips", "count", "lower", 0},
	{"sim.kernel_ns_per_step", "ns", "lower", 0},
	{"sim.nextwork_ns_per_step", "ns", "lower", 0},
	{"sim.timer_ns_per_event", "ns", "lower", 0},
	{"sim.idle_scan_ns_per_skip", "ns", "lower", 0},
	{"host.tick_ns_per_step", "ns", "lower", 0},
	{"host.cmds_posted", "count", "higher", 0},
	{"host.comps_processed", "count", "higher", 0},
	{"host.post_retry_ratio", "ratio", "lower", 0},
	{"hostif.cmds_fetched", "count", "higher", 0},
	{"hostif.pcie_util_to_device_pct", "%", "lower", 0},
	{"hostif.pcie_util_to_host_pct", "%", "lower", 0},
	{"hostif.cmd_fetch_sim_ns_p50", "ns", "lower", 0},
	{"hostif.cmd_fetch_sim_ns_p99", "ns", "lower", 0},
	{"hostif.completion_sim_ns_p50", "ns", "lower", 0},
	{"hostif.post_fetch_ns_per_cmd", "ns", "lower", 0},
	{"engine.tick_ns_per_step", "ns", "lower", 0},
	{"engine.host_ns_per_pkt", "ns", "lower", 0},
	{"engine.cmds_processed", "count", "higher", 0},
	{"engine.rx_pkts", "count", "higher", 0},
	{"engine.tx_pkts", "count", "higher", 0},
	{"engine.retrans_segs", "count", "lower", 0},
	{"engine.rx_dropped", "count", "lower", 0},
	{"engine.flows_rejected", "count", "lower", 0},
	{"sched.routed", "count", "higher", 0},
	{"sched.coalesced", "count", "higher", 0},
	{"sched.coalesce_ratio", "ratio", "higher", 0},
	{"sched.backpressure", "count", "lower", 0},
	{"sched.migrations", "count", "lower", 0},
	{"sched.swap_ins", "count", "lower", 0},
	{"sched.dropped_events", "count", "lower", 0},
	{"fpc.events_handled", "count", "higher", 0},
	{"fpc.processed", "count", "higher", 0},
	{"fpc.stalls", "count", "lower", 0},
	{"fpc.events_per_pass", "ratio", "higher", 0},
	{"fpc.fpu_pass_sim_ns_p50", "ns", "lower", 0},
	{"fpc.drive_ns_per_cycle", "ns", "lower", 0},
	{"memmgr.cache_hits", "count", "higher", 0},
	{"memmgr.cache_miss", "count", "lower", 0},
	{"memmgr.hit_ratio", "ratio", "higher", 0},
	{"memmgr.swap_reqs", "count", "lower", 0},
	{"datapath.cuckoo_lookup_ns", "ns", "lower", 0},
	{"datapath.cuckoo_insert_delete_ns", "ns", "lower", 0},
	{"datapath.cuckoo_kicks", "count", "lower", 0},
	{"datapath.cuckoo_resizes", "count", "lower", 0},
	{"datapath.cuckoo_stash_peak", "count", "lower", 0},
	{"datapath.cuckoo_fulldrops", "count", "lower", 0},
	{"datapath.bytes_per_flow_accounted", "B", "lower", 0},
	{"tcpproc.process_ns_per_event", "ns", "lower", 0},
	{"flow.accumulate_merge_ns", "ns", "lower", 0},
	{"timerq.arm_ns", "ns", "lower", 0},
	{"timerq.expire_ns_per_timer", "ns", "lower", 0},
	{"wire.marshal_ns", "ns", "lower", 0},
	{"wire.unmarshal_ns", "ns", "lower", 0},
	{"wire.checksum_ns_per_kb", "ns", "lower", 0},
	{"wire.pool_get_put_ns", "ns", "lower", 0},
	{"netsim.link_sent_pkts", "count", "higher", 0},
	{"netsim.link_sent_bytes", "B", "higher", 0},
	{"netsim.link_util_pct", "%", "higher", 0},
	{"netsim.link_dropped_pkts", "count", "lower", 0},
	{"netsim.wire_sim_ns_p50", "ns", "lower", 0},
	{"netsim.sink_ns_per_step", "ns", "lower", 0},
	{"stack.tick_ns_per_step", "ns", "lower", 0},
	{"stack.rx_pkts", "count", "higher", 0},
	{"stack.tx_pkts", "count", "higher", 0},
	{"stack.processed_events", "count", "higher", 0},
	{"stack.flows_rejected", "count", "lower", 0},
	{"stack.heap_bytes_per_flow", "B", "lower", 0},
	{"cpu.app_share", "ratio", "higher", 0},
	{"cpu.tcp_share", "ratio", "lower", 0},
	{"cpu.lib_share", "ratio", "lower", 0},
	{"cpu.kernel_other_share", "ratio", "lower", 0},
	{"cpu.idle_share", "ratio", "lower", 0},
	{"apps.tick_ns_per_step", "ns", "lower", 0},
	{"apps.lat_samples", "count", "higher", 0},
	{"telemetry.overhead_pct", "%", "lower", 0},
	{"telemetry.metrics_registered", "count", "lower", 0},
	{"telemetry.trace_events", "count", "lower", 0},
	{"telemetry.trace_dropped", "count", "lower", 0},
	{"telemetry.closure_err_pct", "%", "lower", 0},
}

// untracedNames and tracedNames are the metric sets of the two JSON result
// lines, in BENCHMARK.json order.
func untracedNames() []metricSpec { return endToEnd[:boundedEndToEnd] }

func tracedNames() []metricSpec {
	out := append([]metricSpec{}, endToEnd[boundedEndToEnd:]...)
	return append(out, perLayer...)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the working directory or its
// parent (the command runs with bench/ as working directory).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// checkDeclared verifies that the names, units and directions this program
// prints are exactly those BENCHMARK.json declares, and that every name is
// well formed.
func checkDeclared(f *benchmarkFile) error {
	type decl struct{ unit, better string }
	want := func(specs []metricSpec) map[string]decl {
		m := make(map[string]decl, len(specs))
		for _, s := range specs {
			m[s.Name] = decl{s.Unit, s.Better}
		}
		return m
	}
	diff := func(kind string, have, want map[string]decl) error {
		var bad []string
		for n, d := range want {
			if h, ok := have[n]; !ok {
				bad = append(bad, "missing "+n)
			} else if h != d {
				bad = append(bad, fmt.Sprintf("%s declared %v, printed %v", n, h, d))
			}
		}
		for n := range have {
			if _, ok := want[n]; !ok {
				bad = append(bad, "undeclared in program "+n)
			}
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("BENCHMARK.json %s differs from the program: %v", kind, bad)
		}
		return nil
	}
	e2e := map[string]decl{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better}
	}
	pl := map[string]decl{}
	for _, m := range f.PerLayer {
		pl[m.Name] = decl{m.Unit, m.Better}
	}
	if err := diff("end_to_end", e2e, want(untracedNames())); err != nil {
		return err
	}
	for i, s := range untracedNames() {
		// Same order too: diff has shown the sets are equal.
		if m := f.EndToEnd[i]; m.Name == s.Name && m.Bound != s.Bound {
			return fmt.Errorf("BENCHMARK.json bounds %s by %g, the program by %g", s.Name, m.Bound, s.Bound)
		}
	}
	if err := diff("per_layer", pl, want(tracedNames())); err != nil {
		return err
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			return fmt.Errorf("metric name %q is not well formed", s.Name)
		}
	}
	return nil
}
