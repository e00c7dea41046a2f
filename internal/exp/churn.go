package exp

import (
	"fmt"

	"f4t/internal/datapath"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// The churn experiment pushes the flow axis: a fleet of client
// endpoints on island A opens connections against one server endpoint
// on island B until the target concurrency is reached, then sustains it
// under heavy-tailed departure/replacement churn (Pareto lifetimes —
// most connections die young, a fat tail lives for the whole run).
// Multiple client IPs keep the 64k-ephemeral-ports-per-address-pair
// limit from capping the axis, and CarryBytes=false keeps the footprint
// to control state only, which is exactly what the experiment measures:
// can the flow table, arenas and timer machinery hold 2^20 concurrent
// connections without losing or leaking any.

// ChurnConfig parameterizes the churn rig.
type ChurnConfig struct {
	TargetFlows   int     // live connections to reach and sustain
	Clients       int     // client endpoints on island A (one IP each)
	SustainCycles int64   // how long to hold the plateau under churn
	Budget        int64   // ramp budget in cycles
	LifetimeXM    int64   // Pareto scale: minimum lifetime, cycles
	LifetimeAlpha float64 // Pareto shape (~1.2: heavy tail)
	Seed          uint64
}

// DefaultChurnConfig is the full-scale 2^20-flow configuration.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		TargetFlows:   1 << 20,
		Clients:       64,
		SustainCycles: 1_000_000,
		Budget:        20_000_000,
		LifetimeXM:    2_500_000, // 10 ms at 250 MHz: churn overlaps the plateau
		LifetimeAlpha: 1.2,
		Seed:          7,
	}
}

// QuickChurnConfig is the CI-sized 2^17-flow configuration.
func QuickChurnConfig() ChurnConfig {
	c := DefaultChurnConfig()
	c.TargetFlows = 1 << 17
	c.Clients = 16
	c.SustainCycles = 400_000
	c.Budget = 4_000_000
	c.LifetimeXM = 300_000
	return c
}

// ChurnResult is the outcome of one churn run.
type ChurnResult struct {
	Reached      bool
	ReachedCycle int64 // coarse-grid cycle the target was first observed
	EndCycle     int64

	Opened, Established int64
	Departed            int64 // departures the driver initiated
	Closes, Aborts      int64 // departure split (FIN vs RST)
	DialRejected        int64 // Dial returned nil (client full)

	LiveAtEnd       int64 // driver's view: established - departed
	ServerConnsEnd  int   // server's live connection count at end
	ServerRejected  int64 // server-side counted open refusals
	ServerTable     datapath.CuckooStats
	ServerMem       []telemetry.MemItem
	ServerBytesFlow float64 // accounted bytes per server connection

	Digest string // fabric-comparable run fingerprint
}

// OpenRate is the mean dial rate over the whole run — ramp and sustain,
// like Opened — in connections per cycle. The driver's burst cap bounds
// it at churnDialsPerStep/churnStepCycles.
func (r *ChurnResult) OpenRate() float64 { return float64(r.Opened) / float64(r.EndCycle) }

// Churn rig constants: the driver acts on a fixed cycle grid so serial,
// noskip and sharded runs make identical decisions at identical cycles.
const (
	churnStepCycles   = 256 // driver grid
	churnDialsPerStep = 128 // open burst per grid step (0.5 conns/cycle)
	churnLinkGbps     = 400 // fatter than the default testbed: setup
	// packets of a 2^20-flow ramp must not queue behind serialization
	churnRetrySteps = 32 // re-arm delay for not-yet-established expiries
	churnMaxLifeXM  = 64 // lifetime truncation, in multiples of XM
	// churnOvershoot keeps that many connections above the target so the
	// plateau holds through replacement-handshake latency and closes
	// still in flight.
	churnOvershoot = 2048
)

// churnNode is a stack.Node under this package's name. The benchmark
// ledger charges a component to the stack layer when its Go type name
// contains "exp.churn" (bench/fabric.go:layerOf, which only a benchmark
// PR may edit); once that matches "stack." too, register the node bare.
type churnNode struct{ *stack.Node }

// churnServer is the server application, riding the server's node: it
// closes a connection when its peer has, so CLOSE_WAIT never
// accumulates and the client carries the TIME_WAIT.
type churnServer struct{ h *stack.Host }

func (s churnServer) Tick(int64) {
	for _, ev := range s.h.Poll() {
		if ev.Kind == sock.EvHangup && !ev.Conn.Closed() {
			ev.Conn.Close()
		}
	}
}

// NextWork implements sim.Sleeper: events queue earlier in the node's
// own tick, so there is never one waiting across cycles.
func (churnServer) NextWork(int64) int64 { return sim.Dormant }

// churnDriver opens, expires and replaces connections on the fixed grid.
// It reads only island-A state (its own counters and client conns), so
// its decisions are identical on every fabric.
type churnDriver struct {
	cfg     ChurnConfig
	clients []*stack.Host // one thread per client endpoint
	server  wire.Addr
	rng     *sim.Rand
	nextCli int

	wheel map[int64][]sock.Conn // expiry step → due connections

	opened, established      int64
	departed, closes, aborts int64
	dialRejected             int64
}

func newChurnDriver(cfg ChurnConfig, clients []*stack.Host, server wire.Addr) *churnDriver {
	return &churnDriver{
		cfg:     cfg,
		clients: clients,
		server:  server,
		rng:     sim.NewRand(cfg.Seed + 1000),
		wheel:   make(map[int64][]sock.Conn),
	}
}

// poll drains the clients' event queues, counting completed handshakes
// (the only event the driver acts on: departures go by the wheel).
func (d *churnDriver) poll() {
	for _, h := range d.clients {
		for _, ev := range h.Poll() {
			if ev.Kind == sock.EvConnected {
				d.established++
			}
		}
	}
}

// live is the driver's deterministic lower bound on concurrency:
// handshakes completed by now minus departures initiated (closes in
// flight still count against it, so the bound is conservative).
func (d *churnDriver) live() int64 {
	d.poll()
	return d.established - d.departed
}

func (d *churnDriver) Tick(cycle int64) {
	if cycle%churnStepCycles != 0 {
		return
	}
	step := cycle / churnStepCycles
	d.poll()

	// Departures due this step. Connections still mid-handshake are
	// re-armed rather than killed half-open; already-gone ones (reset by
	// the peer, closed by an earlier pass) are skipped.
	if due := d.wheel[step]; len(due) > 0 {
		delete(d.wheel, step)
		for _, c := range due {
			switch {
			case c.Closed() || c.WasReset():
				// Already gone.
			case !c.Established():
				d.wheel[step+churnRetrySteps] = append(d.wheel[step+churnRetrySteps], c)
			default:
				d.departed++
				if d.rng.Bool(0.5) {
					d.closes++
					c.Close() // FIN path: client carries the TIME_WAIT
				} else {
					d.aborts++
					c.Abort() // RST path: both sides free immediately
				}
			}
		}
	}

	// Replacement dials: every departure is replaced, so the plateau
	// holds under churn. The burst cap keeps per-step work bounded.
	want := int64(d.cfg.TargetFlows) + churnOvershoot + d.departed
	for n := 0; n < churnDialsPerStep && d.opened < want; n++ {
		cli := d.clients[d.nextCli]
		d.nextCli = (d.nextCli + 1) % len(d.clients)
		c := cli.Dial(d.server, 80)
		if c == nil {
			d.dialRejected++
			continue
		}
		d.opened++
		life := int64(d.rng.Pareto(float64(d.cfg.LifetimeXM), d.cfg.LifetimeAlpha))
		if max := d.cfg.LifetimeXM * churnMaxLifeXM; life > max {
			life = max
		}
		expiry := (cycle+life)/churnStepCycles + 1
		d.wheel[expiry] = append(d.wheel[expiry], c)
	}
}

// NextWork implements sim.Sleeper: the driver acts on every grid step
// (there is always churn work while the rig runs).
func (d *churnDriver) NextWork(now int64) int64 {
	return now - now%churnStepCycles + churnStepCycles
}

// churnClientAddr returns client i's address: one IP per client so the
// per-address-pair ephemeral port space is never the flow ceiling.
func churnClientAddr(i int) (wire.Addr, wire.MAC) {
	return wire.MakeAddr(10, 1, byte(i>>8), byte(1+i&0xff)),
		wire.MAC{2, 1, 0, 0, byte(i >> 8), byte(i)}
}

// churnRig is the churn testbed: bare endpoints on a link, not a
// core.Build rig, because one node carries many IPs, which core.Net does
// not model; it is held to the same determinism contract (see package
// core).
type churnRig struct {
	cfg                    ChurnConfig
	link                   *netsim.Link
	srv                    *stack.Endpoint
	clients                []*stack.Endpoint
	serverNode, clientNode *stack.Node
	driver                 *churnDriver
}

// newChurnRig builds the testbed on f and registers its components.
func newChurnRig(f sim.Fabric, cfg ChurnConfig) *churnRig {
	kA, kB := f.IslandKernel(IslandA), f.IslandKernel(IslandB)
	link := netsim.NewLinkOn(f, IslandA, IslandB, churnLinkGbps, LinkPropNS, cfg.Seed*2+1)

	// Server: island B. No data rings (CarryBytes=false) — the axis under
	// test is control state.
	srvOpt := stack.Options{
		IP: AddrB, MAC: MACB, Cfg: tcpproc.DefaultConfig(), Alg: "newreno",
		MaxFlows: cfg.TargetFlows + cfg.TargetFlows/4 + 65536,
		Seed:     cfg.Seed + 500,
	}
	srv := stack.New(kB, srvOpt, link.BtoA.Send)
	srvHost := stack.NewHosts(srv, 1)[0]
	srvHost.Listen(80)
	serverNode := stack.NewNode(srv)
	serverNode.Rider = churnServer{srvHost}
	link.AtoB.SetSink(serverNode.DeliverPacket)

	// Clients: island A, one endpoint per IP behind one node. Static ARP
	// both ways so the ramp is pure TCP.
	// Headroom above the per-client share covers connections parked in
	// TIME_WAIT (the close half of departures holds the slot and port for
	// TimeWaitDur after the flow goes quiet).
	perClient := cfg.TargetFlows/cfg.Clients + 16384
	clients := make([]*stack.Endpoint, cfg.Clients)
	threads := make([]*stack.Host, cfg.Clients)
	for i := range clients {
		ip, mac := churnClientAddr(i)
		opt := stack.Options{
			IP: ip, MAC: mac, Cfg: tcpproc.DefaultConfig(), Alg: "newreno",
			MaxFlows: perClient, Seed: cfg.Seed + uint64(i)*17,
		}
		clients[i] = stack.New(kA, opt, link.AtoB.Send)
		clients[i].LearnPeer(AddrB, MACB)
		srv.LearnPeer(ip, mac)
		threads[i] = stack.NewHosts(clients[i], 1)[0]
	}
	clientNode := stack.NewNode(clients...)
	link.BtoA.SetSink(clientNode.DeliverPacket)

	driver := newChurnDriver(cfg, threads, AddrB)

	f.RegisterOn(IslandB, churnNode{serverNode})
	f.RegisterOn(IslandA, churnNode{clientNode})
	f.RegisterOn(IslandA, driver)
	return &churnRig{cfg: cfg, link: link, srv: srv, clients: clients,
		serverNode: serverNode, clientNode: clientNode, driver: driver}
}

// rampDone reports the plateau: the driver's conservative live bound and
// the server's own connection count are both at target. The predicate is
// observed on a fixed coarse grid; both sides of the rig are
// deterministic at those cycles on every fabric.
func (r *churnRig) rampDone() bool {
	return r.driver.live() >= int64(r.cfg.TargetFlows) && r.srv.Conns() >= r.cfg.TargetFlows
}

// ChurnOn runs the churn experiment on any fabric: build the testbed,
// ramp to the target, sustain the plateau under churn, report counters
// and a digest.
func ChurnOn(f sim.Fabric, cfg ChurnConfig) *ChurnResult {
	r := newChurnRig(f, cfg)
	driver, srv, link := r.driver, r.srv, r.link

	res := &ChurnResult{}
	res.Reached = RunUntilCoarse(f, r.rampDone, 25_000, cfg.Budget)
	if res.Reached {
		res.ReachedCycle = f.Now()
		f.Run(cfg.SustainCycles)
	}
	res.EndCycle = f.Now()

	res.LiveAtEnd = driver.live() // polls: counts every handshake completed by now
	res.Opened = driver.opened
	res.Established = driver.established
	res.Departed = driver.departed
	res.Closes = driver.closes
	res.Aborts = driver.aborts
	res.DialRejected = driver.dialRejected
	res.ServerConnsEnd = srv.Conns()
	res.ServerRejected = srv.FlowsRejected
	res.ServerTable = srv.TableStats()

	fp := telemetry.NewFootprint()
	srv.InstrumentMem(fp, "srv")
	res.ServerMem = fp.Snapshot()
	res.ServerBytesFlow = fp.BytesPerFlow(int64(srv.Conns()))

	var cliRx, cliTx, cliEv, cliRej int64
	for _, c := range r.clients {
		cliRx += c.RxPkts
		cliTx += c.TxPkts
		cliEv += c.ProcessedEvents
		cliRej += c.FlowsRejected
	}
	// Everything in the digest is integral and cycle-deterministic; the
	// memory numbers stay out (allocator capacities are not part of the
	// determinism contract).
	res.Digest = fmt.Sprintf(
		"reached=%d end=%d opened=%d est=%d dep=%d cls=%d abt=%d rej=%d/%d/%d live=%d srv=%d srxtx=%d/%d sev=%d crxtx=%d/%d cev=%d tbl=%d/%d/%d/%d/%d link=%d/%d|%d/%d demux=%d/%d",
		res.ReachedCycle, res.EndCycle, res.Opened, res.Established, res.Departed,
		res.Closes, res.Aborts, res.DialRejected, cliRej, res.ServerRejected,
		res.LiveAtEnd, res.ServerConnsEnd,
		srv.RxPkts, srv.TxPkts, srv.ProcessedEvents,
		cliRx, cliTx, cliEv,
		res.ServerTable.Size, res.ServerTable.Kicks, res.ServerTable.Stashed,
		res.ServerTable.Resizes, res.ServerTable.FullDrops,
		link.AtoB.SentPkts, link.AtoB.SentBytes, link.BtoA.SentPkts, link.BtoA.SentBytes,
		r.serverNode.DemuxDrops, r.clientNode.DemuxDrops)
	return res
}

// Churn runs the churn experiment on a serial kernel and renders the
// result table (the f4tbench -exp churn entry).
func Churn(quick bool) *Table {
	cfg := DefaultChurnConfig()
	if quick {
		cfg = QuickChurnConfig()
	}
	res := ChurnOn(sim.New(), cfg)

	tab := &Table{
		Title: fmt.Sprintf("churn: %d concurrent connections under heavy-tailed churn (%d clients)",
			cfg.TargetFlows, cfg.Clients),
		Header: []string{"metric", "value"},
	}
	if !res.Reached {
		tab.Err = fmt.Errorf("%d of %d live after %d cycles", res.LiveAtEnd, cfg.TargetFlows, cfg.Budget)
		return tab
	}
	rampNS := res.ReachedCycle * sim.CycleNS
	tab.AddRow("target flows", i64(int64(cfg.TargetFlows)))
	tab.AddRow("ramp time", fmt.Sprintf("%.2f ms (%d cycles)", float64(rampNS)/1e6, res.ReachedCycle))
	tab.AddRow("opened / established", fmt.Sprintf("%d / %d", res.Opened, res.Established))
	tab.AddRow("departures (close/abort)", fmt.Sprintf("%d (%d/%d)", res.Departed, res.Closes, res.Aborts))
	tab.AddRow("live at end (driver/server)", fmt.Sprintf("%d / %d", res.LiveAtEnd, res.ServerConnsEnd))
	tab.AddRow("open rate over run", fmt.Sprintf("%.2f conns/ms", res.OpenRate()*1e6/sim.CycleNS))
	tab.AddRow("rejected opens (client dial / server)", fmt.Sprintf("%d / %d", res.DialRejected, res.ServerRejected))
	st := res.ServerTable
	tab.AddRow("server flow table", fmt.Sprintf("size=%d slots=%d stash=%d(peak %d) kicks=%d resizes=%d fulldrops=%d",
		st.Size, st.Slots, st.Stash, st.StashPeak, st.Kicks, st.Resizes, st.FullDrops))
	for _, m := range res.ServerMem {
		tab.AddRow("server mem "+m.Name, fmt.Sprintf("%d entries, %d B", m.Entries, m.Bytes))
	}
	tab.AddRow("server bytes/flow (accounted)", fmt.Sprintf("%.0f B", res.ServerBytesFlow))
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("Pareto lifetimes: xm=%d cycles, alpha=%.1f, truncated at %dx xm", cfg.LifetimeXM, cfg.LifetimeAlpha, churnMaxLifeXM),
		fmt.Sprintf("sustained %d cycles of churn at the plateau with every departure replaced", cfg.SustainCycles),
		"digest "+res.Digest)
	if res.LiveAtEnd < int64(cfg.TargetFlows) {
		tab.Err = fmt.Errorf("plateau lost during sustain: %d of %d live at end", res.LiveAtEnd, cfg.TargetFlows)
	}
	return tab
}
