package exp

import (
	"fmt"
	"runtime"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/fpc"
	"f4t/internal/hostif"
)

// headerPoint runs the §6 header-processing rig: two FtEngines with
// payload transfer suppressed (HeaderOnly), so neither the link nor the
// payload DMA bottlenecks and the header/command path is exposed.
func headerPoint(cores int, cmdBytes int64, roundRobin bool, design string) float64 {
	return headerPointMut(cores, cmdBytes, roundRobin, func(c *engine.Config) {
		switch design {
		case "baseline":
			c.Mode = fpc.ModeStall
			c.StallNum, c.StallDen = 17*250, 322
			c.NumFPCs = 1
			c.Coalesce = false
		case "1fpc":
			c.NumFPCs = 1
			c.Coalesce = false
		case "1fpc-c":
			c.NumFPCs = 1
			c.Coalesce = true
		case "f4t", "":
			c.NumFPCs = 8
			c.Coalesce = true
		default:
			panic("exp: unknown design " + design)
		}
	})
}

// headerPointMut is headerPoint with an arbitrary design mutation.
func headerPointMut(cores int, cmdBytes int64, roundRobin bool, designMut func(*engine.Config)) float64 {
	costs := cpu.DefaultCosts()
	mutate := func(c *engine.Config) {
		c.HeaderOnly = true
		c.CarryBytes = false
		c.CommandBytes = cmdBytes
		if designMut != nil {
			designMut(c)
		}
	}

	p := NewF4TPair(cores, cores, costs, mutate)
	k := p.K
	sink := apps.NewSink(p.MachB.Threads(), 7001)
	k.Register(sink)
	k.Run(2_000)

	var requests interface{ RatePerSecond(int64) float64 }
	var snapshot func(int64)
	if roundRobin {
		rr := apps.NewRoundRobinSender(p.MachA.Threads(), 0, 7001, 128, 16)
		k.Register(rr)
		k.RunUntil(rr.Ready, 10_000_000)
		requests = &rr.Requests
		snapshot = rr.Requests.Snapshot
	} else {
		b := apps.NewBulkSender(p.MachA.Threads(), 0, 7001, 128)
		k.Register(b)
		k.RunUntil(b.Ready, 10_000_000)
		requests = &b.Requests
		snapshot = b.Requests.Snapshot
	}
	k.Run(DefaultWarmup)
	snapshot(k.Now())
	k.Run(DefaultMeasure)
	return requests.RatePerSecond(k.Now())
}

// Fig16a reproduces Figure 16a: header processing rate vs CPU cores for
// 16 B and 8 B commands. With 16 B commands the PCIe command stream
// saturates; 8 B commands lift the ceiling (§6). The points run as one
// Sweep.
func Fig16a(quick bool) *Table {
	t := &Table{
		Title:  "Figure 16a: header processing rate vs cores (bulk, Mrps)",
		Header: []string{"cores", "16B cmds", "8B cmds"},
	}
	coreSteps := []int{1, 2, 4, 8, 16, 24}
	if quick {
		coreSteps = []int{2, 8}
	}
	cmds := []int64{hostif.CommandBytes16, hostif.CommandBytes8}
	rates := make([]float64, len(coreSteps)*len(cmds))
	Sweep(len(rates), runtime.GOMAXPROCS(0), func(i int) {
		rates[i] = headerPoint(coreSteps[i/len(cmds)], cmds[i%len(cmds)], false, "f4t")
	})
	for r, cores := range coreSteps {
		t.AddRow(fmt.Sprintf("%d", cores), f1(Mrps(rates[r*2])), f1(Mrps(rates[r*2+1])))
	}
	t.Notes = append(t.Notes,
		"paper: 16 B commands saturate PCIe; 8 B commands scale linearly to ~900 Mrps")
	return t
}

// Fig16b reproduces Figure 16b: header processing rate of the
// intermediate hardware designs with 24 CPU cores, bulk and round-robin.
func Fig16b(quick bool) *Table {
	t := &Table{
		Title:  "Figure 16b: intermediate designs, header rate (Mrps) and speedup over Baseline",
		Header: []string{"design", "bulk Mrps", "bulk ×", "RR Mrps", "RR ×"},
	}
	cores := 24
	if quick {
		cores = 8
	}
	designs := []string{"baseline", "1fpc", "1fpc-c", "f4t"}
	var bulkBase, rrBase float64
	for _, d := range designs {
		bulk := headerPoint(cores, hostif.CommandBytes16, false, d)
		rr := headerPoint(cores, hostif.CommandBytes16, true, d)
		if d == "baseline" {
			bulkBase, rrBase = bulk, rr
		}
		t.AddRow(d, f1(Mrps(bulk)), f1(bulk/bulkBase), f1(Mrps(rr)), f1(rr/rrBase))
	}
	t.Notes = append(t.Notes,
		"paper: 1FPC 8.6×/8.4×, 1FPC-C 62.3×/8.6×, F4T 63.1×/71.3× over Baseline (bulk/RR)")
	return t
}
