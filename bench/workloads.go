package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/exp"
	"f4t/internal/host"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// workloadSpec is one of the five closed-loop workloads. The measured
// window is fixed in simulated cycles (cyclesPerSec × the run's nominal
// --seconds), so two builds do identical simulated work at a given seed;
// cyclesPerSec is the simulator's speed on the seed commit, which makes a
// 10 s nominal run the window the issue names.
type workloadSpec struct {
	name         string
	cyclesPerSec int64
	clients      string // the closed loop's simulated client count
	run          func(e *env) (*result, error)
}

var workloads = []workloadSpec{
	{"bulk_sat", 2_000_000, "2 bulk flows (2 sender cores x 1)", runPair(buildBulkSat)},
	{"http_f4t", 12_000_000, "64 keep-alive wrk flows on 16 client cores", runPair(buildHTTP("f4t"))},
	{"http_linux", 100_000_000, "64 keep-alive wrk flows on 16 client cores", runPair(buildHTTP("linux"))},
	{"echo_swap", 400_000, "8192 ping-pong flows on 8 cores", runPair(buildEchoSwap)},
	{"churn_plateau", 600_000, "65536 live connections from 16 client endpoints", runChurn},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what one run of one workload is given.
type env struct {
	seed   uint64
	quick  bool  // smoke-test scale: smaller rigs as well as shorter windows
	cycles int64 // measured window, simulated cycles
	setups int   // how many times to set up (the median is setup_s)
	ht     *hostTracer
}

// result is everything one run of one workload measured.
type result struct {
	workload string
	seed     uint64

	setupS []float64 // wall seconds of each set-up
	win    window

	ops, payload   int64 // completed operations, payload bytes consumed by receivers
	latN           int
	latP50, latP99 int64
	paperGbps      float64 // absolute paper figure for the headline number, 0 = none

	attempted, failed int64
	failNotes         []string

	delta  *counters // simulated counters over the window
	digest string

	layer             map[string]float64 // per-layer metrics known so far
	simTrace          *telemetry.Trace   // the rig's own trace ring, where it has one
	metricsRegistered int
}

// fail counts n failed operations of one kind.
func (r *result) fail(what string, n int64) {
	if n > 0 {
		r.failed += n
		r.failNotes = append(r.failNotes, fmt.Sprintf("%s=%d", what, n))
	}
}

// simSeconds is the measured window in simulated seconds.
func (r *result) simSeconds() float64 {
	return float64(r.win.cycles) * sim.CycleNS / 1e9
}

// rig is a constructed, ramped and warmed pair rig.
type rig struct {
	k          *sim.Kernel
	f4t        *exp.F4TPair
	linux      *exp.LinuxPair
	tel        *exp.PairTelemetry
	reg        *telemetry.Registry
	trace      *telemetry.Trace
	dialled    int
	notEst     int // dials not established when the window starts
	ops        func() int64
	payload    func() int64
	lat        *sim.Histogram // nil: the workload has no operation latency
	serverPool *cpu.Pool
	paperGbps  float64
}

// An untraced run sets a rig up env.setups times, and goes on while the
// set-ups so far took less than cheapSetupBudget, up to maxCheapSetups.
const (
	maxCheapSetups   = 15
	cheapSetupBudget = 500 * time.Millisecond
)

// traceRing is the capacity of the rig's telemetry.Trace in the traced run.
const traceRing = 1 << 16

// instrumentF4T attaches the full exp telemetry bundle in the traced run.
func (r *rig) instrumentF4T(e *env) {
	if e.ht == nil {
		return
	}
	r.tel = exp.InstrumentF4TPair(r.f4t, 0, traceRing)
	r.reg, r.trace = r.tel.Reg, r.tel.Trace
	// The periodic sampler and its per-flow table sweep are not read here,
	// and a sweep of 16 k TCBs every 25 k cycles is a rare, millisecond-long
	// timer callback that the 1-in-64 iteration sample cannot estimate.
	r.tel.Sampler.Stop()
}

func buildBulkSat(e *env, f sim.Fabric) *rig {
	costs := cpu.DefaultCosts()
	p := newF4TPair(f, 2, 8, costs, e.seed, func(c *engine.Config) { c.CarryBytes = true })
	r := &rig{k: p.K, f4t: p, dialled: 2, serverPool: p.MachB.Pool(), paperGbps: 87}
	r.instrumentF4T(e)

	sink := apps.NewSink(p.MachB.Threads(), 5001)
	sink.Instrument(r.reg, "app.sink")
	f.RegisterOn(exp.IslandB, sink)
	f.Run(2_000)
	b := apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 128)
	b.Instrument(r.reg, "app.bulk")
	f.RegisterOn(exp.IslandA, b)
	if !exp.RunUntilCoarse(f, b.Ready, 10_000, 20_000_000) {
		r.notEst = r.dialled - int(p.EngB.FlowsAccepted.Total())
	}
	f.Run(exp.DefaultWarmup)
	r.ops = b.Requests.Total
	r.payload = sink.Delivered.Total
	return r
}

func buildHTTP(stackKind string) func(e *env, f sim.Fabric) *rig {
	return func(e *env, f sim.Fabric) *rig {
		costs := cpu.DefaultCosts()
		const clientCores, flows, port = 16, 64, 80
		r := &rig{dialled: flows}
		var serverThreads, clientThreads []host.Thread
		accepted := func() int { return 0 }
		if stackKind == "linux" {
			p := newLinuxPair(f, clientCores, 1, costs, e.seed)
			r.k, r.linux, r.serverPool = p.K, p, p.MachB.Pool()
			serverThreads, clientThreads = p.MachB.Threads(), p.MachA.Threads()
			accepted = p.MachB.Endpoint().Conns
			if e.ht != nil {
				r.reg, r.trace = telemetry.NewRegistry(), telemetry.NewTrace(traceRing)
				p.Link.Instrument(r.reg, "link")
				r.trace.SetThreadName(1, "link.a_to_b")
				p.Link.AtoB.SetTracer(r.trace, 1)
				r.trace.SetThreadName(2, "link.b_to_a")
				p.Link.BtoA.SetTracer(r.trace, 2)
			}
		} else {
			p := newF4TPair(f, clientCores, 1, costs, e.seed, func(c *engine.Config) { c.CarryBytes = false })
			r.k, r.f4t, r.serverPool = p.K, p, p.MachB.Pool()
			serverThreads, clientThreads = p.MachB.Threads(), p.MachA.Threads()
			accepted = func() int { return int(p.EngB.FlowsAccepted.Total()) }
			r.instrumentF4T(e)
		}

		srv := apps.NewHTTPServer(serverThreads, port, 128, 256, costs)
		srv.Instrument(r.reg, "app.http")
		f.RegisterOn(exp.IslandB, srv)
		f.Run(2_000)
		wrk := apps.NewWrk(r.k, clientThreads, 0, port, 128, 256, flows/clientCores, costs)
		wrk.Instrument(r.reg, "app.wrk")
		f.RegisterOn(exp.IslandA, wrk)
		if !exp.RunUntilCoarse(f, wrk.Ready, 20_000, 20_000_000) {
			r.notEst = r.dialled - accepted()
		}
		f.Run(exp.DefaultWarmup)
		r.serverPool.ResetAccounting()
		wrk.Latency.Reset()
		r.ops = wrk.Responses.Total
		r.payload = func() int64 { return srv.Requests.Total()*128 + wrk.Responses.Total()*256 }
		r.lat = &wrk.Latency
		return r
	}
}

func buildEchoSwap(e *env, f sim.Fabric) *rig {
	costs := cpu.DefaultCosts()
	const cores, port = 8, 9001
	flows := 8192 // 8x the 1024 FPC-resident slots
	if e.quick {
		flows = 1536
	}
	p := newF4TPair(f, cores, cores, costs, e.seed, func(c *engine.Config) {
		c.Memory = memmgr.DDR
		c.CarryBytes = false
	})
	r := &rig{k: p.K, f4t: p, dialled: flows, serverPool: p.MachB.Pool()}
	r.instrumentF4T(e)

	srv := apps.NewEchoServer(p.MachB.Threads(), port, 128)
	f.RegisterOn(exp.IslandB, srv)
	f.Run(2_000)
	cli := apps.NewEchoClient(p.KA, p.MachA.Threads(), 0, port, 128, flows/cores)
	if e.ht != nil {
		cli.Instrument(r.reg, "app.echo")
		cli.SetTracer(r.trace, r.tel.NextTID("app.echo"))
	}
	f.RegisterOn(exp.IslandA, cli)
	exp.RunUntilCoarse(f, cli.Ready, 50_000, 5_000_000+int64(flows)*400)
	r.notEst = flows - cli.Established()
	f.Run(exp.DefaultWarmup)
	cli.Latency.Reset()
	r.ops = cli.Requests.Total
	r.payload = func() int64 { return cli.Requests.Total() * 2 * 128 }
	r.lat = &cli.Latency
	return r
}

// snapshot reads every simulated counter of the rig.
func (r *rig) snapshot() *counters {
	c := &counters{}
	c.add("sim.cycle", r.k.Now())
	c.add("apps.ops", r.ops())
	c.add("apps.payload_bytes", r.payload())
	if r.f4t != nil {
		readEngines(c, r.f4t)
		readLink(c, r.f4t.Link)
	} else {
		readEndpoints(c, r.linux)
		readLink(c, r.linux.Link)
	}
	c.seal()
	if r.tel != nil {
		readLibs(c, r.reg)
	}
	return c
}

// runPair turns a rig builder into a workload: set up (several times in an
// untraced run, keeping the last rig), measure the window, read the
// counters.
func runPair(build func(e *env, f sim.Fabric) *rig) func(e *env) (*result, error) {
	return func(e *env) (*result, error) {
		res := &result{seed: e.seed, layer: map[string]float64{}}
		var r *rig
		var f sim.Fabric
		// A rig that sets up in milliseconds is set up more often (up to
		// maxCheapSetups times within cheapSetupBudget), so that the median
		// is not at the mercy of one page fault.
		began := time.Now()
		for i := 0; i < e.setups || (e.setups > 1 && i < maxCheapSetups && time.Since(began) < cheapSetupBudget); i++ {
			r, f = nil, nil
			runtime.GC()
			t0 := time.Now()
			k := sim.New()
			f = k
			if e.ht != nil {
				f = &benchFabric{k: k, ht: e.ht}
			}
			r = build(e, f)
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
		}

		start := r.snapshot()
		res.win = measureWindow(f.Run, r.k, e.cycles, e.ht)
		end := r.snapshot()
		res.delta = end.sub(start)

		res.ops = res.delta.get("apps.ops")
		res.payload = res.delta.get("apps.payload_bytes")
		res.paperGbps = r.paperGbps
		if r.lat != nil {
			res.latN, res.latP50, res.latP99 = r.lat.Count(), r.lat.Median(), r.lat.P99()
		}
		res.digest = end.digest() + fmt.Sprintf("-%x-%x-%x", res.latN, res.latP50, res.latP99)

		// Failures are counted over the whole run, the ramp included. The
		// engines' parser tables are not exposed; a full table refuses the
		// open, which flows_rejected already counts.
		res.attempted = int64(r.dialled) + res.ops
		res.fail("dials_not_established", int64(r.notEst))
		for _, name := range []string{"engine.flows_rejected", "engine.rx_no_flow", "sched.dropped_events",
			"stack.flows_rejected", "stack.rx_no_flow"} {
			res.fail(name, end.get(name))
		}

		for cat, share := range poolBreakdown(r.serverPool) {
			res.layer["cpu."+cat+"_share"] = share
		}
		res.layer["apps.lat_samples"] = float64(res.latN)
		// Only the count and the trace ring outlive the run: the registry's
		// gauges hold the whole rig.
		res.metricsRegistered, res.simTrace = r.reg.Len(), r.trace
		return res, nil
	}
}

// poolBreakdown averages the Fig 11 CPU categories over a pool's cores,
// under the metric-name spelling of each category.
func poolBreakdown(p *cpu.Pool) map[string]float64 {
	names := map[string]string{"app": "app", "tcp": "tcp", "f4t-lib": "lib", "kernel-other": "kernel_other", "idle": "idle"}
	out := map[string]float64{}
	for _, core := range p.Cores {
		for cat, f := range core.Breakdown() {
			out[names[cat]] += f / float64(len(p.Cores))
		}
	}
	return out
}

// --- churn_plateau: exp.ChurnOn on the decorator fabric ---

func churnConfig(e *env) exp.ChurnConfig {
	cfg := exp.ChurnConfig{
		TargetFlows: 65536,
		// 16 endpoints, not the issue's 8: with 8, the clients' TIME_WAIT
		// population (~125 k at this churn rate) outgrows their flow-table
		// headroom 2 M cycles into the window and every later dial is
		// refused. 16 keeps the plateau failure-free for the whole window.
		Clients:       16,
		SustainCycles: e.cycles,
		Budget:        4_000_000, // a multiple of the 25 000-cycle ramp step
		LifetimeXM:    200_000,
		LifetimeAlpha: 1.2,
		Seed:          7 + e.seed,
	}
	if e.quick {
		cfg.TargetFlows = 8192
	}
	return cfg
}

// churnCounters parses the public digest line of a ChurnResult back into
// counters (the rig itself is private to exp).
func churnCounters(res *exp.ChurnResult) (*counters, error) {
	var reached, end, opened, est, dep, cls, abt, rejDial, rejCli, rejSrv, live, srv int64
	var srx, stx, sev, crx, ctx, cev int64
	var tblSize, tblKicks, tblStashed, tblResizes, tblFull int64
	var abPkts, abBytes, baPkts, baBytes, demuxS, demuxC int64
	n, err := fmt.Sscanf(res.Digest,
		"reached=%d end=%d opened=%d est=%d dep=%d cls=%d abt=%d rej=%d/%d/%d live=%d srv=%d srxtx=%d/%d sev=%d crxtx=%d/%d cev=%d tbl=%d/%d/%d/%d/%d link=%d/%d|%d/%d demux=%d/%d",
		&reached, &end, &opened, &est, &dep, &cls, &abt, &rejDial, &rejCli, &rejSrv, &live, &srv,
		&srx, &stx, &sev, &crx, &ctx, &cev,
		&tblSize, &tblKicks, &tblStashed, &tblResizes, &tblFull,
		&abPkts, &abBytes, &baPkts, &baBytes, &demuxS, &demuxC)
	if err != nil {
		return nil, fmt.Errorf("parse churn digest (field %d): %w", n, err)
	}
	c := &counters{}
	c.add("sim.cycle", end)
	c.add("churn.opened", opened)
	c.add("churn.established", est)
	c.add("churn.departed", dep)
	c.add("stack.rx_pkts", srx+crx)
	c.add("stack.tx_pkts", stx+ctx)
	c.add("stack.processed_events", sev+cev)
	c.add("stack.flows_rejected", rejDial+rejCli+rejSrv)
	c.add("stack.demux_drops", demuxS+demuxC)
	c.add("datapath.cuckoo_kicks", tblKicks)
	c.add("datapath.cuckoo_resizes", tblResizes)
	c.add("datapath.cuckoo_fulldrops", tblFull)
	c.add("netsim.link_sent_pkts", abPkts+baPkts)
	c.add("netsim.link_sent_bytes", abBytes+baBytes)
	c.add("netsim.link_dropped_pkts", 0)
	c.seal()
	return c, nil
}

func runChurn(e *env) (*result, error) {
	res := &result{seed: e.seed, layer: map[string]float64{}}
	cfg := churnConfig(e)

	// Ramp-only runs: each is one more set-up sample, and the (seed-
	// deterministic) counters at the end of the ramp are the window's
	// starting point.
	var start *counters
	rampOnly := cfg
	rampOnly.SustainCycles = 0
	ramps := e.setups - 1
	if ramps < 1 {
		ramps = 1
	}
	for i := 0; i < ramps; i++ {
		runtime.GC()
		t0 := time.Now()
		rr := exp.ChurnOn(&benchFabric{k: sim.New()}, rampOnly)
		if e.setups > 1 {
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
		}
		if !rr.Reached {
			return nil, fmt.Errorf("churn_plateau: ramp did not reach %d live connections in %d cycles", cfg.TargetFlows, cfg.Budget)
		}
		var err error
		if start, err = churnCounters(rr); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	heapBeforeRig := heapMB()
	k := sim.New()
	f := &benchFabric{k: k, ht: e.ht, sustain: cfg.SustainCycles}
	t0 := time.Now()
	f.onWindow = func(run func(n int64)) {
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		res.win = measureWindow(run, k, cfg.SustainCycles, e.ht)
	}
	cr := exp.ChurnOn(f, cfg)
	if !cr.Reached || res.win.cycles == 0 {
		return nil, fmt.Errorf("churn_plateau: plateau not reached or window not recognised")
	}
	end, err := churnCounters(cr)
	if err != nil {
		return nil, err
	}
	res.delta = end.sub(start)
	res.digest = end.digest()
	res.ops = res.delta.get("churn.established")

	res.attempted = cr.Opened
	res.fail("stack.flows_rejected", end.get("stack.flows_rejected"))
	res.fail("datapath.cuckoo_fulldrops", cr.ServerTable.FullDrops)
	res.fail("stack.demux_drops", end.get("stack.demux_drops"))
	res.fail("plateau_short_by", int64(cfg.TargetFlows)-cr.LiveAtEnd)

	res.layer["datapath.cuckoo_stash_peak"] = float64(cr.ServerTable.StashPeak)
	res.layer["datapath.bytes_per_flow_accounted"] = cr.ServerBytesFlow
	if grown := res.win.heapStartMB - heapBeforeRig; grown > 0 {
		res.layer["stack.heap_bytes_per_flow"] = grown * (1 << 20) / float64(cfg.TargetFlows)
	}
	return res, nil
}

func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// median of a non-empty slice (the mean of the middle two when even).
func median(v []float64) float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
