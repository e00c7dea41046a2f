package exp

import (
	"fmt"
	"strings"

	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// This file holds the heterogeneous-CC fairness experiment: senders
// running *different* congestion-control programs (BBR vs CUBIC vs
// NewReno) share one dumbbell trunk, and the per-flow goodput split
// under each queue discipline is the measurement. The paper validates
// each FPU program in isolation (Fig 14); this rig measures how they
// coexist — the scenario a programmable-CC NIC actually ships into.

// FairnessTrunkGbps is the dumbbell bottleneck rate: well below the
// 100 Gbps access links, so contention happens at the shared trunk.
const FairnessTrunkGbps = 40

// DefaultFairnessAlgs is the standard contender set.
func DefaultFairnessAlgs() []string { return []string{"bbr", "cubic", "newreno"} }

// FairnessResult is one fairness point's measurement.
type FairnessResult struct {
	Algs       []string
	SenderGbps []float64 // goodput per sender, aligned with Algs
	Jain       float64   // Jain fairness index over SenderGbps
	Trunk      PortStats // the shared trunk port toward the receiver
}

// FairnessPointOn runs len(algs) bulk senders — each under its own
// congestion-control program — through the dumbbell trunk into one
// receiver. seed perturbs every engine's random streams (the
// differential battery sweeps it). Fully grid-timed, so results are
// bit-identical across serial, noskip and sharded fabrics.
func FairnessPointOn(f sim.Fabric, algs []string, aqm netsim.AQMConfig, seed uint64, reg *telemetry.Registry, warmup, measure int64) FairnessResult {
	d := NewF4TDumbbellOn(f, algs, FairnessTrunkGbps, 1_000, cpu.DefaultCosts(), aqm, func(c *engine.Config) {
		c.Seed += seed * 7919
	})
	d.Topo.Instrument(reg, "topo") // no-op on a nil registry

	_, bulks := bulkIntoNode0(f, d, 5_000_000, warmup)
	res := FairnessResult{Algs: algs}
	res.SenderGbps, res.Jain = senderShares(f, bulks, measure)
	res.Trunk = portStats(d.Topo.TrunkLeft[0])
	return res
}

// ScenarioFairness sweeps the queue disciplines under the heterogeneous
// contender set: per-sender goodput, the Jain index and the trunk's
// congestion evidence for each discipline.
func ScenarioFairness(quick bool) *Table {
	algs := DefaultFairnessAlgs()
	t := &Table{
		Title: fmt.Sprintf("Scenario: heterogeneous-CC fairness (%s sharing a %d Gbps dumbbell trunk)",
			strings.Join(algs, " vs "), FairnessTrunkGbps),
		Header: []string{"aqm", "sender", "alg", "goodput Gbps", "share %"},
	}
	warmup, measure := scenarioWindows(quick)
	for i, aqm := range scenarioAQMs() {
		if scenarioSkip(i) {
			continue
		}
		r := FairnessPointOn(sim.New(), algs, aqm, 0, nil, warmup, measure)
		var total float64
		for _, g := range r.SenderGbps {
			total += g
		}
		for j, g := range r.SenderGbps {
			share := 0.0
			if total > 0 {
				share = 100 * g / total
			}
			t.AddRow(scenarioAQMName(i), i64(int64(j+1)), algs[j], f2(g), f1(share))
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: Jain index %.3f, trunk peak queue %.1f KB, drops %d, marks %d",
			scenarioAQMName(i), r.Jain, float64(r.Trunk.PeakQBytes)/1024,
			r.Trunk.TailDrops+r.Trunk.AQMDrops, r.Trunk.Marks))
	}
	t.Notes = append(t.Notes,
		"beyond paper: Fig 14 validates each FPU program alone; this rig measures how they share a bottleneck",
		"bbr holds the trunk queue it models; loss-based flows push until the discipline signals — the split shows who yields")
	return t
}
