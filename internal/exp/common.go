// Package exp contains one runner per table/figure of the paper's
// evaluation (§5, §6). Each runner assembles a rig (hosts, engines,
// link), runs it in simulated time with a warmup, and returns a Table
// whose rows mirror the figure's series. cmd/f4tbench prints them;
// bench_test.go wraps them; EXPERIMENTS.md records paper-vs-measured.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"f4t/internal/core"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/host"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Err    error // the experiment failed: printed as a FAILED line, and f4tbench exits 1
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.Err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", t.Err)
	}
	return b.String()
}

// Addresses of the two-node testbed.
var (
	AddrA = wire.MakeAddr(10, 0, 0, 1)
	AddrB = wire.MakeAddr(10, 0, 0, 2)
	MACA  = wire.MAC{2, 0, 0, 0, 0, 1}
	MACB  = wire.MAC{2, 0, 0, 0, 0, 2}
)

// LinkGbps is the testbed link speed (§5: 100 Gbps).
const LinkGbps = 100

// LinkPropNS models the direct-connect cabling plus MAC latency.
const LinkPropNS = 600

// Islands of the two-node testbed on a sim.Fabric: everything on host A
// (engine, machine, apps) is island A; host B likewise.
const (
	IslandA = 0
	IslandB = 1
)

// pairLink builds the two-node testbed's link: host A on IslandA, host
// B on IslandB. The link is the only cross-island channel, so its
// propagation delay is a sharded fabric's lookahead.
func pairLink(f sim.Fabric, seed uint64) *netsim.Link {
	return netsim.NewNodeLinkOn(f,
		netsim.NodeSpec{Addr: AddrA, MAC: MACA, Island: IslandA, Gbps: LinkGbps, PropNS: LinkPropNS},
		netsim.NodeSpec{Addr: AddrB, MAC: MACB, Island: IslandB, Gbps: LinkGbps, PropNS: LinkPropNS}, seed)
}

// pairSeeds are the two hosts' engine seeds on every engine pair rig.
var pairSeeds = [2]uint64{101, 202}

// F4TPair is two F4T hosts (engine + library machine) over one link.
type F4TPair struct {
	R            sim.Runner  // the fabric driving the rig (serial or sharded)
	K            *sim.Kernel // the serial kernel, nil when R is sharded
	KA, KB       *sim.Kernel // island clocks (both == K on a serial fabric)
	Link         *netsim.Link
	EngA, EngB   *engine.Engine
	MachA, MachB *host.F4TMachine
}

// NewF4TPair builds the standard two-node F4T testbed on a fresh serial
// kernel. mutate adjusts the shared engine configuration (both sides).
func NewF4TPair(coresA, coresB int, costs cpu.Costs, mutate func(*engine.Config)) *F4TPair {
	return NewF4TPairOn(sim.New(), coresA, coresB, costs, mutate)
}

// NewF4TPairOn builds the testbed on any fabric (core.Build on
// pairLink; the determinism contract is stated in package core).
func NewF4TPairOn(f sim.Fabric, coresA, coresB int, costs cpu.Costs, mutate func(*engine.Config)) *F4TPair {
	link := pairLink(f, 1234)
	base := engine.DefaultConfig()
	base.Channels = coresA
	if mutate != nil {
		mutate(&base)
	}
	cores := [2]int{coresA, coresB}
	r := core.Build(f, link, func(i int) engine.Config {
		cfg := base
		cfg.Seed, cfg.Channels = pairSeeds[i], cores[i]
		return cfg
	}, func(int) cpu.Costs { return costs })
	return &F4TPair{R: f, K: r.K, KA: r.Kernels[0], KB: r.Kernels[1], Link: link,
		EngA: r.Engines[0], EngB: r.Engines[1], MachA: r.Machs[0], MachB: r.Machs[1]}
}

// LinuxPair is two Linux-stack hosts over one link.
type LinuxPair struct {
	R            sim.Runner
	K            *sim.Kernel // serial kernel, nil when R is sharded
	KA, KB       *sim.Kernel
	Link         *netsim.Link
	MachA, MachB *host.LinuxMachine
}

// NewLinuxPair builds the baseline two-node testbed on a serial kernel.
func NewLinuxPair(coresA, coresB int, costs cpu.Costs) *LinuxPair {
	return NewLinuxPairOn(sim.New(), coresA, coresB, costs)
}

// NewLinuxPairOn builds the baseline testbed on any fabric: the same
// link and islands as NewF4TPairOn with a host.LinuxMachine per node.
func NewLinuxPairOn(f sim.Fabric, coresA, coresB int, costs cpu.Costs) *LinuxPair {
	link := pairLink(f, 5678)
	p := &LinuxPair{R: f, KA: f.IslandKernel(IslandA), KB: f.IslandKernel(IslandB), Link: link}
	p.K, _ = f.(*sim.Kernel)
	mach := func(i, cores int, seed uint64) *host.LinuxMachine {
		n := link.Node(i)
		opt := stack.Options{IP: n.Addr, MAC: n.MAC, Cfg: tcpproc.DefaultConfig(), Alg: "cubic", MaxFlows: 70000, Seed: seed}
		m := host.NewLinuxMachine(f.IslandKernel(n.Island), opt, cores, costs, core.Peers(link, i), nil)
		core.AttachSoft(link, i, m)
		return m
	}
	p.MachA = mach(0, coresA, 11)
	p.MachB = mach(1, coresB, 22)
	f.RegisterOn(IslandA, p.MachA)
	f.RegisterOn(IslandB, p.MachB)
	return p
}

// RunUntilCoarse advances until the predicate holds, checking it at
// most once per step cycles — for predicates that are themselves
// O(flows) and must not run every cycle. The predicate is observed on
// a fixed cycle grid (start, start+step, ...) regardless of execution
// mode or cycle skipping, so serial, shadow (noskip), and sharded runs
// of the same rig stop at the same cycle — the property the
// differential battery depends on.
func RunUntilCoarse(r sim.Runner, pred func() bool, step, budget int64) bool {
	if step < 1 {
		step = 1
	}
	end := r.Now() + budget
	for {
		if pred() {
			return true
		}
		if r.Now() >= end {
			return false
		}
		n := step
		if rem := end - r.Now(); n > rem {
			n = rem
		}
		r.Run(n)
	}
}

// MeasureRate runs warmup cycles, snapshots the counter, runs measure
// cycles, and returns the counter's steady-state events/second.
func MeasureRate(r sim.Runner, c *sim.Counter, warmup, measure int64) float64 {
	r.Run(warmup)
	c.Snapshot(r.Now())
	r.Run(measure)
	return c.RatePerSecond(r.Now())
}

// Sweep runs n independent experiment points across at most workers
// goroutines. Each point builds its own rig on its own kernel, so
// points share no state and the sweep's results are identical to a
// serial loop — only wall-clock time changes. Results must be slotted
// by index inside point, never appended.
func Sweep(n, workers int, point func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			point(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				point(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Gbps converts a bytes/second rate to gigabits per second.
func Gbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e9 }

// Mrps converts an events/second rate to millions per second.
func Mrps(rate float64) float64 { return rate / 1e6 }

// Default simulation windows: 1 ms warmup, 3 ms measurement. Throughput
// at 100 Gbps moves ~37 MB in the window — plenty for steady-state
// rates while keeping the sweep fast.
const (
	DefaultWarmup  = 250_000
	DefaultMeasure = 750_000
)

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
