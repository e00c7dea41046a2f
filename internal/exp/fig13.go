package exp

import (
	"fmt"
	"runtime"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// EchoPoint runs the §5.3 echoing benchmark: totalFlows ping-pong
// connections, 8 cores per side, 128 B messages — the worst-case TCB
// locality pattern. stack ∈ {"linux", "f4t-ddr", "f4t-hbm"}.
func EchoPoint(stackKind string, totalFlows int) (mrps float64, establishedFrac float64) {
	return EchoPointMut(stackKind, totalFlows, nil)
}

// EchoPointMut is EchoPoint with an engine-config mutation (ablations).
func EchoPointMut(stackKind string, totalFlows int, mutate func(*engine.Config)) (mrps float64, establishedFrac float64) {
	return EchoPointOn(sim.New(), stackKind, totalFlows, mutate)
}

// EchoPointOn runs the echo benchmark on any fabric: server on island
// B, client on island A. On a serial kernel it is EchoPointMut; on a
// ShardedKernel the two hosts run on separate goroutines and must
// produce bit-identical numbers (the shard_diff battery checks this).
func EchoPointOn(f sim.Fabric, stackKind string, totalFlows int, mutate func(*engine.Config)) (mrps float64, establishedFrac float64) {
	costs := cpu.DefaultCosts()
	const cores = 8
	const port = 9001
	perThread := totalFlows / cores
	if perThread == 0 {
		perThread = 1
	}

	var threadsA, threadsB []host.Thread
	switch stackKind {
	case "linux":
		p := NewLinuxPairOn(f, cores, cores, costs)
		threadsA, threadsB = p.MachA.Threads(), p.MachB.Threads()
	case "f4t-ddr", "f4t-hbm":
		mem := memmgr.HBM
		if stackKind == "f4t-ddr" {
			mem = memmgr.DDR
		}
		p := NewF4TPairOn(f, cores, cores, costs, func(c *engine.Config) {
			c.Memory = mem
			c.CarryBytes = false
			if mutate != nil {
				mutate(c)
			}
		})
		threadsA, threadsB = p.MachA.Threads(), p.MachB.Threads()
	default:
		panic("exp: unknown echo stack " + stackKind)
	}
	srv := apps.NewEchoServer(threadsB, port, 128)
	f.RegisterOn(IslandB, srv)
	f.Run(2_000)
	client := apps.NewEchoClient(f.IslandKernel(IslandA), threadsA, 0, port, 128, perThread)
	f.RegisterOn(IslandA, client)

	// Ramp: allow generous time for tens of thousands of handshakes; the
	// readiness check is O(flows), so probe it coarsely.
	budget := int64(5_000_000) + int64(totalFlows)*400
	RunUntilCoarse(f, client.Ready, 50_000, budget)
	want := perThread * cores
	establishedFrac = float64(client.Established()) / float64(want)

	f.Run(DefaultWarmup)
	client.Requests.Snapshot(f.Now())
	f.Run(DefaultMeasure * 2) // echo needs a longer window at low rates
	return Mrps(client.Requests.RatePerSecond(f.Now())), establishedFrac
}

// Fig13 reproduces Figure 13: echo request rate vs concurrent flows for
// Linux, F4T with DDR, and F4T with HBM. The F4T-DDR curve degrades past
// 1,024 flows (the FPC-resident capacity) as every request forces a
// DRAM TCB swap; HBM's bandwidth hides the swaps (§5.3). Each
// (flows, stack) cell is one self-contained rig; the cells run as one
// Sweep.
func Fig13(quick bool) *Table {
	t := &Table{
		Title:  "Figure 13: 128 B echo request rate vs number of flows (Mrps)",
		Header: []string{"flows", "linux", "f4t-ddr", "f4t-hbm"},
	}
	flowSteps := []int{64, 256, 1024, 4096, 16384, 65536}
	if quick {
		flowSteps = []int{256, 4096, 16384}
	}
	stacks := []string{"linux", "f4t-ddr", "f4t-hbm"}
	cells := make([]string, len(flowSteps)*len(stacks))
	Sweep(len(cells), runtime.GOMAXPROCS(0), func(i int) {
		flows, stackKind := flowSteps[i/len(stacks)], stacks[i%len(stacks)]
		mrps, frac := EchoPoint(stackKind, flows)
		cell := f2(mrps)
		if frac < 0.999 {
			cell += fmt.Sprintf(" (%.0f%% est)", frac*100)
		}
		cells[i] = cell
	})
	for r, flows := range flowSteps {
		row := append([]string{fmt.Sprintf("%d", flows)}, cells[r*len(stacks):(r+1)*len(stacks)]...)
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: F4T is 20× Linux at 1K flows; at 64K flows 12× (DDR) and 44× (HBM)",
		"paper: the DDR curve drops past 1,024 flows (FPC capacity) — DRAM-bandwidth throttled",
		"the flow axis continues past 65,536 (one address pair's port ceiling) in",
		"-exp churn (2^20) and the benchmark's churn_plateau workload (go -C bench run .)")
	return t
}
