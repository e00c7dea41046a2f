package exp

import (
	"fmt"
	"sort"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// NginxResult is one web-server measurement.
type NginxResult struct {
	Krps      float64            // responses per second, thousands
	MedianNS  int64              // client-observed median latency
	P99NS     int64              // client-observed 99th percentile latency
	Breakdown map[string]float64 // server CPU utilization by category
}

// NginxPoint runs the §5.2 workload: an HTTP server (Nginx stand-in) on
// the given stack with serverCores, loaded by a wrk-style generator on a
// Linux client with enough cores (16) to stay out of the way. Requests
// are 128 B, responses 256 B (HTTP header + HTML payload, §5.2).
func NginxPoint(stackKind string, serverCores, totalFlows int) NginxResult {
	return NginxPointWindow(stackKind, serverCores, totalFlows, DefaultMeasure*2)
}

const (
	// nginxClientCores is the wrk machine's core count: enough that
	// client load generation never limits the server (it did not in the
	// paper).
	nginxClientCores = 16
	nginxPort        = 80
)

// nginxRig is the §5.2 testbed on kernel k before any client app runs:
// the HTTP server (128 B requests, 256 B responses) listening on
// stackKind with serverCores, past its first 2 000 cycles, and the wrk
// machine's threads. Exactly one of f4t and linux is set.
type nginxRig struct {
	k             *sim.Kernel
	srv           *apps.HTTPServer
	serverPool    *cpu.Pool
	clientThreads []host.Thread
	f4t           *F4TPair
	linux         *LinuxPair
}

func newNginxRig(k *sim.Kernel, stackKind string, serverCores int, costs cpu.Costs) *nginxRig {
	r := &nginxRig{k: k}
	var serverThreads []host.Thread
	switch stackKind {
	case "linux":
		p := NewLinuxPairOn(k, nginxClientCores, serverCores, costs)
		r.linux = p
		serverThreads, r.serverPool, r.clientThreads = p.MachB.Threads(), p.MachB.Pool(), p.MachA.Threads()
	case "f4t":
		// Server on F4T; client machine remains a wrk box. Model the
		// client as an F4T host too so its 16 cores never bottleneck
		// (the paper's client load generation was not the limiter).
		p := NewF4TPairOn(k, nginxClientCores, serverCores, costs, func(c *engine.Config) {
			c.CarryBytes = false
		})
		r.f4t = p
		serverThreads, r.serverPool, r.clientThreads = p.MachB.Threads(), p.MachB.Pool(), p.MachA.Threads()
	default:
		panic("exp: unknown stack " + stackKind)
	}
	r.srv = apps.NewHTTPServer(serverThreads, nginxPort, 128, 256, costs)
	r.k.Register(r.srv)
	r.k.Run(2_000)
	return r
}

// nginxPerThread spreads totalFlows over the wrk machine's threads.
func nginxPerThread(totalFlows int) int {
	if n := totalFlows / nginxClientCores; n > 0 {
		return n
	}
	return 1
}

// NginxPointWindow is NginxPoint with an explicit measurement window;
// the latency experiment (Fig 12) uses a long window so the rare
// kernel stalls that form the Linux tail are represented.
func NginxPointWindow(stackKind string, serverCores, totalFlows int, measure int64) NginxResult {
	costs := cpu.DefaultCosts()
	k := sim.New()
	r := newNginxRig(k, stackKind, serverCores, costs)
	wrk := apps.NewWrk(k, r.clientThreads, 0, nginxPort, 128, 256, nginxPerThread(totalFlows), costs)
	k.Register(wrk)

	RunUntilCoarse(k, wrk.Ready, 20_000, 20_000_000)
	k.Run(DefaultWarmup)
	r.serverPool.ResetAccounting()
	wrk.Responses.Snapshot(k.Now())
	wrk.Latency.Reset()
	k.Run(measure)

	// Aggregate the server breakdown over its cores.
	agg := map[string]float64{}
	for _, core := range r.serverPool.Cores {
		for cat, f := range core.Breakdown() {
			agg[cat] += f / float64(len(r.serverPool.Cores))
		}
	}
	return NginxResult{
		Krps:      wrk.Responses.RatePerSecond(k.Now()) / 1e3,
		MedianNS:  wrk.Latency.Median(),
		P99NS:     wrk.Latency.P99(),
		Breakdown: agg,
	}
}

// Fig10 reproduces Figure 10: Nginx request processing rate vs number
// of connections, for 1–4 server cores, Linux vs F4T.
func Fig10(quick bool) *Table {
	t := &Table{
		Title:  "Figure 10: Nginx request rate (Krps)",
		Header: []string{"stack", "cores", "16 flows", "64 flows", "256 flows"},
	}
	flowSteps := []int{16, 64, 256}
	coreSteps := []int{1, 2, 4}
	if quick {
		flowSteps = []int{64}
		coreSteps = []int{1}
	}
	for _, stackKind := range []string{"linux", "f4t"} {
		for _, cores := range coreSteps {
			row := []string{stackKind, fmt.Sprintf("%d", cores)}
			for _, flows := range flowSteps {
				res := NginxPoint(stackKind, cores, flows)
				row = append(row, f1(res.Krps))
			}
			for len(row) < len(t.Header) {
				row = append(row, "-")
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: F4T reaches 2.6–2.8× the Linux request rate at the 256-flow saturation point")
	return t
}

// Fig11 reproduces Figure 11: the CPU utilization breakdown of Nginx
// with one server core and 64 flows, Linux vs F4T. F4T removes the TCP
// cycles entirely; the residual kernel time is vfs_read (§5.2).
func Fig11() *Table {
	t := &Table{
		Title:  "Figure 11: Nginx CPU utilization breakdown (1 core, 64 flows)",
		Header: []string{"stack", "category", "share"},
	}
	var appLinux, appF4T float64
	for _, stackKind := range []string{"linux", "f4t"} {
		res := NginxPoint(stackKind, 1, 64)
		keys := make([]string, 0, len(res.Breakdown))
		for cat := range res.Breakdown {
			keys = append(keys, cat)
		}
		sort.Strings(keys)
		for _, cat := range keys {
			t.AddRow(stackKind, cat, fmt.Sprintf("%.1f%%", res.Breakdown[cat]*100))
		}
		if stackKind == "linux" {
			appLinux = res.Breakdown["app"]
		} else {
			appF4T = res.Breakdown["app"]
		}
	}
	if appLinux > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("app-cycle ratio F4T/Linux = %.2f (paper: 2.8×)", appF4T/appLinux))
	}
	t.Notes = append(t.Notes, "paper: F4T removes all TCP cycles; remaining kernel time is vfs_read")
	return t
}

// Fig12 reproduces Figure 12: Nginx median and 99th percentile latency
// (1 server core, 64 flows), Linux vs F4T.
func Fig12() *Table {
	t := &Table{
		Title:  "Figure 12: Nginx latency (1 core, 64 flows)",
		Header: []string{"stack", "median us", "p99 us"},
	}
	var medL, p99L, medF, p99F float64
	for _, stackKind := range []string{"linux", "f4t"} {
		res := NginxPointWindow(stackKind, 1, 64, 25_000_000)
		med := float64(res.MedianNS) / 1e3
		p99 := float64(res.P99NS) / 1e3
		t.AddRow(stackKind, f1(med), f1(p99))
		if stackKind == "linux" {
			medL, p99L = med, p99
		} else {
			medF, p99F = med, p99
		}
	}
	if medF > 0 && p99F > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("ratios Linux/F4T: median %.1f×, p99 %.1f× (paper: 3.7× and 26×)", medL/medF, p99L/p99F))
	}
	return t
}

// Fig1 reproduces Figure 1: Nginx on the Linux stack — the motivating
// measurement. (a) the CPU breakdown showing the TCP share; (b) the
// request rate vs core count, far from saturating 100 Gbps.
func Fig1(quick bool) *Table {
	t := &Table{
		Title:  "Figure 1: Nginx on Linux — CPU share of TCP and request rate",
		Header: []string{"cores", "Krps", "app", "tcp", "kernel-other", "idle"},
	}
	coreSteps := []int{1, 2, 4, 8}
	if quick {
		coreSteps = []int{1}
	}
	for _, cores := range coreSteps {
		res := NginxPoint("linux", cores, 256)
		t.AddRow(fmt.Sprintf("%d", cores), f1(res.Krps),
			fmt.Sprintf("%.0f%%", res.Breakdown["app"]*100),
			fmt.Sprintf("%.0f%%", res.Breakdown["tcp"]*100),
			fmt.Sprintf("%.0f%%", res.Breakdown["kernel-other"]*100),
			fmt.Sprintf("%.0f%%", res.Breakdown["idle"]*100))
	}
	t.Notes = append(t.Notes,
		"paper: the TCP stack consumes 37% of total CPU cycles; Nginx achieves only a few Mrps")
	return t
}
