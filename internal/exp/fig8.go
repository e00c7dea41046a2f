package exp

import (
	"fmt"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// TransferResult is one data-transfer measurement.
type TransferResult struct {
	GoodputGbps float64 // payload delivered at the receiver (iPerf metric)
	Mrps        float64 // accepted send requests per second, millions
}

// TransferPoint runs one data-transfer configuration end to end: stack
// ∈ {"linux", "f4t"}, pattern bulk or round-robin (16 flows/core, §5.1),
// request size, sender cores. The receiver always runs 8 cores (the
// paper's server configuration).
func TransferPoint(stackKind string, roundRobin bool, reqSize, cores int, mutate func(*engine.Config)) TransferResult {
	return TransferPointOn(sim.New(), stackKind, roundRobin, reqSize, cores, mutate)
}

// TransferPointOn is TransferPoint on any fabric: sender on island A,
// receiver on island B. Sharded runs must reproduce the serial numbers
// bit for bit (shard_diff battery).
func TransferPointOn(f sim.Fabric, stackKind string, roundRobin bool, reqSize, cores int, mutate func(*engine.Config)) TransferResult {
	costs := cpu.DefaultCosts()
	const rxCores = 8
	const port = 5001

	var sendThreads, recvThreads []host.Thread
	switch stackKind {
	case "linux":
		p := NewLinuxPairOn(f, cores, rxCores, costs)
		sendThreads = p.MachA.Threads()
		recvThreads = p.MachB.Threads()
	case "f4t":
		p := NewF4TPairOn(f, cores, rxCores, costs, mutate)
		sendThreads = p.MachA.Threads()
		recvThreads = p.MachB.Threads()
	default:
		panic("exp: unknown stack " + stackKind)
	}

	sink := apps.NewSink(recvThreads, port)
	f.RegisterOn(IslandB, sink)
	// Let the listeners register before dialing.
	f.Run(2_000)

	var requests *sim.Counter
	var ready func() bool
	if roundRobin {
		rr := apps.NewRoundRobinSender(sendThreads, 0, port, reqSize, 16)
		f.RegisterOn(IslandA, rr)
		requests = &rr.Requests
		ready = rr.Ready
	} else {
		b := apps.NewBulkSender(sendThreads, 0, port, reqSize)
		f.RegisterOn(IslandA, b)
		requests = &b.Requests
		ready = b.Ready
	}

	if !RunUntilCoarse(f, ready, 10_000, 20_000_000) {
		// Some flows failed to establish in time; measure anyway — the
		// result will reflect the degradation, as a real benchmark would.
	}
	f.Run(DefaultWarmup)
	sink.Delivered.Snapshot(f.Now())
	requests.Snapshot(f.Now())
	f.Run(DefaultMeasure)

	return TransferResult{
		GoodputGbps: Gbps(sink.Delivered.RatePerSecond(f.Now())),
		Mrps:        Mrps(requests.RatePerSecond(f.Now())),
	}
}

// Fig8 reproduces Figure 8: goodput of bulk (a) and round-robin (b)
// transfers with 64 B and 128 B requests, Linux vs F4T, 1–8 sender
// cores.
func Fig8(quick bool) *Table {
	t := &Table{
		Title:  "Figure 8: throughput with different request patterns (Gbps goodput)",
		Header: []string{"pattern", "stack", "req B", "1 core", "2 cores", "4 cores", "8 cores"},
	}
	coreSteps := []int{1, 2, 4, 8}
	sizes := []int{64, 128}
	if quick {
		coreSteps = []int{1, 2}
		sizes = []int{128}
	}
	for _, rr := range []bool{false, true} {
		pattern := "bulk"
		if rr {
			pattern = "round-robin"
		}
		for _, stackKind := range []string{"linux", "f4t"} {
			for _, size := range sizes {
				row := []string{pattern, stackKind, fmt.Sprintf("%d", size)}
				for _, cores := range coreSteps {
					res := TransferPoint(stackKind, rr, size, cores, nil)
					row = append(row, f1(res.GoodputGbps))
				}
				for len(row) < len(t.Header) {
					row = append(row, "-")
				}
				t.AddRow(row...)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: Linux bulk 128B/8c = 8.3 Gbps; F4T bulk 128B = 45 G @1c, 87 G @2c, 92.6 G @8c",
		"paper: Linux RR <1 Gbps; F4T RR 35 G @1c, 63 G @2c, 90 G @8c")
	return t
}
