package exp

import (
	"fmt"
	"strings"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// This file holds the datacenter scenario rigs built on the topology
// subsystem: incast (N senders through one bottleneck port), RPC
// fan-out/fan-in, mixed latency-sensitive + bulk traffic, and
// RTT-diverse WAN paths. Each point runs on any sim.Fabric and reads
// its congestion evidence from the bottleneck RouterPort's counters.

// ScenarioNames lists the topology scenarios cmd/f4tbench exposes.
func ScenarioNames() []string { return []string{"incast", "fanio", "mixed", "wan"} }

// ScenarioAQMNames lists the disciplines the scenario sweeps cover, in
// sweep order ("ecn-thresh" is the F4T-style fixed-threshold marker the
// point-to-point links also implement).
func ScenarioAQMNames() []string {
	return []string{"droptail", "ecn-thresh", "red", "codel"}
}

// scenarioAQMOnly, when non-empty, restricts sweeps to one discipline.
var scenarioAQMOnly string

// SetScenarioAQM restricts every scenario sweep to one discipline name
// from ScenarioAQMNames, or restores the full sweep with "".
func SetScenarioAQM(name string) error {
	if name != "" {
		ok := false
		for _, n := range ScenarioAQMNames() {
			ok = ok || n == name
		}
		if !ok {
			return fmt.Errorf("unknown AQM %q (want %s)", name, strings.Join(ScenarioAQMNames(), ", "))
		}
	}
	scenarioAQMOnly = name
	return nil
}

// scenarioAQMs is the discipline sweep every scenario table runs.
func scenarioAQMs() []netsim.AQMConfig {
	return []netsim.AQMConfig{
		netsim.DropTail(0),
		netsim.ECNThreshold(netsim.DefaultCoDelTargetNS, 0),
		netsim.RED(0, true),
		netsim.CoDel(0, true),
	}
}

func scenarioAQMName(i int) string { return ScenarioAQMNames()[i] }

// scenarioSkip reports whether the sweep filter excludes discipline i.
func scenarioSkip(i int) bool {
	return scenarioAQMOnly != "" && scenarioAQMName(i) != scenarioAQMOnly
}

// PortStats is the congestion evidence one bottleneck port produced.
type PortStats struct {
	PeakQBytes  int64
	TailDrops   int64
	AQMDrops    int64
	Marks       int64
	FirstCongNS int64 // first drop or mark, -1 when none happened
}

func portStats(p *netsim.RouterPort) PortStats {
	s := PortStats{
		PeakQBytes: p.PeakQBytes, TailDrops: p.TailDrops,
		AQMDrops: p.AQMDrops, Marks: p.MarkedPkts, FirstCongNS: -1,
	}
	if p.FirstCongCycle >= 0 {
		s.FirstCongNS = p.FirstCongCycle * sim.CycleNS
	}
	return s
}

// IncastResult is one incast point's measurement.
type IncastResult struct {
	GoodputGbps float64
	Port        PortStats // the receiver's downlink — the bottleneck
}

// IncastPointOn runs N bulk senders into one receiver through a single
// switch port governed by aqm. reg (optional) receives the topology's
// per-port telemetry; seed perturbs every engine's random streams (the
// differential battery sweeps it). The run is fully grid-timed, so
// results are bit-identical across serial, noskip and sharded fabrics.
func IncastPointOn(f sim.Fabric, senders int, aqm netsim.AQMConfig, alg string, seed uint64, reg *telemetry.Registry, warmup, measure int64) IncastResult {
	cores := make([]int, senders+1)
	for i := range cores {
		cores[i] = 1
	}
	s := NewF4TStarOn(f, cores, cpu.DefaultCosts(), aqm, func(c *engine.Config) {
		setAlg(c, alg)
		c.Seed += seed * 7919
	})
	s.Topo.Instrument(reg, "topo") // no-op on a nil registry

	sink, _ := bulkIntoNode0(f, s, 5_000_000, warmup)
	sink.Delivered.Snapshot(f.Now())
	f.Run(measure)
	return IncastResult{
		GoodputGbps: Gbps(sink.Delivered.RatePerSecond(f.Now())),
		Port:        portStats(s.Topo.NodePorts[0]),
	}
}

// setAlg loads the congestion-control program on a node; dctcp also
// needs ECN negotiated.
func setAlg(c *engine.Config, alg string) {
	c.Alg = alg
	c.Proto.ECN = alg == "dctcp"
}

// bulkIntoNode0 drives the many-to-one pattern of the incast, WAN and
// fairness points: a sink on node 0, a bulk sender toward it on every
// other node, run until every sender is established (or budget cycles
// pass) and then through warmup.
func bulkIntoNode0(f sim.Fabric, r *F4TTopo, budget, warmup int64) (*apps.Sink, []*apps.BulkSender) {
	sink := apps.NewSink(r.Machs[0].Threads(), 5001)
	f.RegisterOn(0, sink)
	f.Run(2_000)
	bulks := make([]*apps.BulkSender, len(r.Machs)-1)
	for i := range bulks {
		bulks[i] = apps.NewBulkSender(r.Machs[i+1].Threads(), 0, 5001, 1460)
		f.RegisterOn(i+1, bulks[i])
	}
	allReady := func() bool {
		for _, b := range bulks {
			if !b.Ready() {
				return false
			}
		}
		return true
	}
	RunUntilCoarse(f, allReady, 1_000, budget)
	f.Run(warmup)
	return sink, bulks
}

// senderShares measures each sender's goodput over the next measure
// cycles and the Jain fairness index of the split.
func senderShares(f sim.Fabric, bulks []*apps.BulkSender, measure int64) (gbps []float64, jain float64) {
	for _, b := range bulks {
		b.Bytes.Snapshot(f.Now())
	}
	f.Run(measure)
	var sum, sumSq float64
	for _, b := range bulks {
		g := Gbps(b.Bytes.RatePerSecond(f.Now()))
		gbps = append(gbps, g)
		sum += g
		sumSq += g * g
	}
	if sumSq > 0 {
		jain = sum * sum / (float64(len(bulks)) * sumSq)
	}
	return gbps, jain
}

// FanioResult is one fan-out/fan-in point's measurement.
type FanioResult struct {
	RoundsPerSec float64
	P50NS        int64
	P99NS        int64
	Port         PortStats // the client's downlink — where fan-in lands
}

// FanioPointOn runs one client fanning requests over N RPC servers and
// collecting every response before the next round — the
// partition/aggregate microburst. respSize sets the fan-in burst
// (servers * respSize bytes land at the client's downlink together).
func FanioPointOn(f sim.Fabric, servers int, aqm netsim.AQMConfig, alg string, respSize int, reg *telemetry.Registry, warmup, measure int64) FanioResult {
	cores := make([]int, servers+1)
	for i := range cores {
		cores[i] = 1
	}
	s := NewF4TStarOn(f, cores, cpu.DefaultCosts(), aqm, func(c *engine.Config) {
		setAlg(c, alg)
		c.CarryBytes = false
	})
	s.Topo.Instrument(reg, "topo") // no-op on a nil registry

	for i := 1; i <= servers; i++ {
		srv := apps.NewRPCServer(s.Machs[i].Threads(), 7001, 128, respSize)
		f.RegisterOn(i, srv)
	}
	f.Run(2_000)
	remotes := make([]int, servers) // the client's peers are exactly the servers
	for i := range remotes {
		remotes[i] = i
	}
	cli := apps.NewFanClient(s.Kernels[0], s.Machs[0].Threads(), remotes, 7001, 128, respSize)
	f.RegisterOn(0, cli)
	RunUntilCoarse(f, cli.Ready, 1_000, 5_000_000)
	f.Run(warmup)
	cli.Rounds.Snapshot(f.Now())
	cli.Latency.Reset()
	f.Run(measure)
	return FanioResult{
		RoundsPerSec: cli.Rounds.RatePerSecond(f.Now()),
		P50NS:        cli.Latency.Median(),
		P99NS:        cli.Latency.P99(),
		Port:         portStats(s.Topo.NodePorts[0]),
	}
}

// MixedResult is one mixed-traffic point's measurement: bulk goodput
// and the latency-sensitive flows' RTT quantiles through the shared
// bottleneck port.
type MixedResult struct {
	BulkGbps float64
	EchoP50  int64
	EchoP99  int64
	Port     PortStats
}

// MixedPointOn runs bulk background traffic and a small-message echo
// workload into the same server node, sharing its downlink port: node 0
// serves both (one thread each), node 1 sends bulk, node 2 runs the
// echo client. SO_REUSEPORT steering keeps each app on its own thread.
func MixedPointOn(f sim.Fabric, aqm netsim.AQMConfig, alg string, reg *telemetry.Registry, warmup, measure int64) MixedResult {
	s := NewF4TStarOn(f, []int{2, 1, 1}, cpu.DefaultCosts(), aqm, func(c *engine.Config) { setAlg(c, alg) })
	s.Topo.Instrument(reg, "topo") // no-op on a nil registry

	serverThreads := s.Machs[0].Threads()
	sink := apps.NewSink(serverThreads[:1], 5001)
	f.RegisterOn(0, sink)
	echoSrv := apps.NewEchoServer(serverThreads[1:], 6001, 128)
	f.RegisterOn(0, echoSrv)
	f.Run(2_000)
	bulk := apps.NewBulkSender(s.Machs[1].Threads(), 0, 5001, 1460)
	f.RegisterOn(1, bulk)
	echo := apps.NewEchoClient(s.Kernels[2], s.Machs[2].Threads(), 0, 6001, 128, 4)
	f.RegisterOn(2, echo)
	ready := func() bool { return bulk.Ready() && echo.Ready() }
	RunUntilCoarse(f, ready, 1_000, 5_000_000)
	f.Run(warmup)
	sink.Delivered.Snapshot(f.Now())
	echo.Latency.Reset()
	f.Run(measure)
	return MixedResult{
		BulkGbps: Gbps(sink.Delivered.RatePerSecond(f.Now())),
		EchoP50:  echo.Latency.Median(),
		EchoP99:  echo.Latency.P99(),
		Port:     portStats(s.Topo.NodePorts[0]),
	}
}

// WANResult is one WAN point's measurement: per-sender goodput over
// RTT-diverse paths plus the shared first-hop port's congestion stats.
type WANResult struct {
	SenderGbps []float64
	Jain       float64
	Port       PortStats // the receiver's downlink on router 0
}

// DefaultWANSenders is the RTT-diverse sender set: same rack, one hop
// out, and two far paths sharing the longest chain.
func DefaultWANSenders() []WANSpec {
	return []WANSpec{
		{RouterIdx: 0, PropNS: 600},
		{RouterIdx: 1, PropNS: 5_000},
		{RouterIdx: 2, PropNS: 25_000},
		{RouterIdx: 2, PropNS: 100_000},
	}
}

// WANPointOn runs bulk senders with diverse access RTTs over a
// three-router chain into one receiver, measuring each flow's share —
// the classic RTT-unfairness experiment.
func WANPointOn(f sim.Fabric, senders []WANSpec, aqm netsim.AQMConfig, alg string, reg *telemetry.Registry, warmup, measure int64) WANResult {
	w := NewF4TWANOn(f, 3, LinkGbps, 10_000, 600, senders, cpu.DefaultCosts(), aqm, func(c *engine.Config) { setAlg(c, alg) })
	w.Topo.Instrument(reg, "topo") // no-op on a nil registry

	_, bulks := bulkIntoNode0(f, w, 10_000_000, warmup)
	var res WANResult
	res.SenderGbps, res.Jain = senderShares(f, bulks, measure)
	res.Port = portStats(w.Topo.NodePorts[0])
	return res
}

// --- f4tbench tables ---

func scenarioWindows(quick bool) (warmup, measure int64) {
	if quick {
		return 100_000, 300_000
	}
	return DefaultWarmup, DefaultMeasure
}

// ScenarioIncast sweeps the queue disciplines under N-to-1 incast.
func ScenarioIncast(quick bool) *Table {
	t := &Table{
		Title:  "Scenario: incast (N bulk senders -> 1 receiver through one switch port)",
		Header: []string{"aqm", "senders", "goodput Gbps", "peak queue KB", "tail drops", "aqm drops", "marks", "onset us"},
	}
	senders := 8
	if quick {
		senders = 4
	}
	warmup, measure := scenarioWindows(quick)
	for i, aqm := range scenarioAQMs() {
		if scenarioSkip(i) {
			continue
		}
		r := IncastPointOn(sim.New(), senders, aqm, "dctcp", 0, nil, warmup, measure)
		t.AddRow(scenarioAQMName(i), i64(int64(senders)), f2(r.GoodputGbps),
			f1(float64(r.Port.PeakQBytes)/1024), i64(r.Port.TailDrops),
			i64(r.Port.AQMDrops), i64(r.Port.Marks), onsetUS(r.Port))
	}
	t.Notes = append(t.Notes,
		"bottleneck = receiver downlink port; droptail shows deep standing queues, RED/CoDel signal earlier")
	return t
}

// ScenarioFanio sweeps the disciplines under RPC fan-out/fan-in.
func ScenarioFanio(quick bool) *Table {
	t := &Table{
		Title:  "Scenario: RPC fan-out/fan-in (1 client, N servers, synchronized responses)",
		Header: []string{"aqm", "servers", "rounds/s", "p50 us", "p99 us", "marks", "drops"},
	}
	servers := 8
	if quick {
		servers = 4
	}
	warmup, measure := scenarioWindows(quick)
	for i, aqm := range scenarioAQMs() {
		if scenarioSkip(i) {
			continue
		}
		r := FanioPointOn(sim.New(), servers, aqm, "dctcp", 16_384, nil, warmup, measure)
		t.AddRow(scenarioAQMName(i), i64(int64(servers)), f1(r.RoundsPerSec),
			f1(float64(r.P50NS)/1000), f1(float64(r.P99NS)/1000),
			i64(r.Port.Marks), i64(r.Port.TailDrops+r.Port.AQMDrops))
	}
	t.Notes = append(t.Notes,
		"the servers' synchronized responses collide at the client's downlink — the classic incast microburst")
	return t
}

// ScenarioMixed sweeps the disciplines under mixed latency-sensitive +
// bulk background traffic sharing one port.
func ScenarioMixed(quick bool) *Table {
	t := &Table{
		Title:  "Scenario: mixed traffic (128 B echo + bulk background through one port)",
		Header: []string{"aqm", "bulk Gbps", "echo p50 us", "echo p99 us", "marks", "drops"},
	}
	warmup, measure := scenarioWindows(quick)
	for i, aqm := range scenarioAQMs() {
		if scenarioSkip(i) {
			continue
		}
		r := MixedPointOn(sim.New(), aqm, "dctcp", nil, warmup, measure)
		t.AddRow(scenarioAQMName(i), f2(r.BulkGbps),
			f1(float64(r.EchoP50)/1000), f1(float64(r.EchoP99)/1000),
			i64(r.Port.Marks), i64(r.Port.TailDrops+r.Port.AQMDrops))
	}
	t.Notes = append(t.Notes,
		"AQM keeps the standing queue short, which is what bounds the echo flows' tail latency")
	return t
}

// ScenarioWAN runs the RTT-diverse multi-hop rig under cubic and dctcp.
func ScenarioWAN(quick bool) *Table {
	t := &Table{
		Title:  "Scenario: WAN paths (3-router chain, RTT-diverse senders -> 1 receiver)",
		Header: []string{"alg", "sender", "access RTT us", "goodput Gbps"},
	}
	warmup, measure := scenarioWindows(quick)
	if !quick {
		// Long paths need more than the default windows to leave slow
		// start: the farthest sender's RTT is ~0.2 ms.
		warmup, measure = 500_000, 1_500_000
	}
	senders := DefaultWANSenders()
	for _, alg := range []string{"cubic", "dctcp"} {
		r := WANPointOn(sim.New(), senders, netsim.CoDel(0, true), alg, nil, warmup, measure)
		for i, g := range r.SenderGbps {
			t.AddRow(alg, i64(int64(i+1)), f1(float64(2*senders[i].PropNS)/1000), f2(g))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: Jain fairness index %.3f", alg, r.Jain))
	}
	t.Notes = append(t.Notes,
		"short-RTT flows grow their windows faster; the fairness index quantifies the resulting skew")
	return t
}

func onsetUS(p PortStats) string {
	if p.FirstCongNS < 0 {
		return "-"
	}
	return f1(float64(p.FirstCongNS) / 1000)
}
