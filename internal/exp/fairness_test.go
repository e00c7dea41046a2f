package exp

import (
	"fmt"
	"math"
	"testing"

	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// fairnessSig folds a fairness point into an exact-bits digest: per-flow
// goodputs, the Jain index and the trunk counters. Any scheduling or RNG
// divergence between fabrics shows up as a digest mismatch.
func fairnessSig(f sim.Fabric, algs []string, aqm netsim.AQMConfig, seed uint64) string {
	r := FairnessPointOn(f, algs, aqm, seed, nil, topoDiffWarmup, topoDiffMeasure)
	sig := fmt.Sprintf("jain=%x trunk=%+v", math.Float64bits(r.Jain), r.Trunk)
	for _, g := range r.SenderGbps {
		sig += fmt.Sprintf(" %x", math.Float64bits(g))
	}
	return sig
}

// TestFairnessShardDifferential is the fabric battery for the
// heterogeneous-CC dumbbell: BBR, CUBIC and DCTCP (so ECN end to end)
// through the shared trunk, across seeds.
func TestFairnessShardDifferential(t *testing.T) {
	seeds := []uint64{0, 1}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		simtest.FabricMatrix(t, func(f sim.Fabric) string {
			return fmt.Sprintf("seed %d: %s", seed, fairnessSig(f, []string{"bbr", "cubic", "dctcp"}, netsim.CoDel(0, true), seed))
		})
	}
}

// TestFairnessRig checks the dumbbell's plumbing: all traffic crosses
// the shared trunk, the per-sender split is measured, and the Jain index
// is well-formed. (Which algorithm wins is a property of the contenders
// and the discipline, not an invariant — the table reports it, the test
// doesn't pin it.)
func TestFairnessRig(t *testing.T) {
	r := FairnessPointOn(sim.New(), DefaultFairnessAlgs(), netsim.DropTail(0), 0, nil, topoDiffWarmup, topoDiffMeasure)
	if len(r.SenderGbps) != 3 {
		t.Fatalf("got %d sender measurements, want 3", len(r.SenderGbps))
	}
	var total float64
	for _, g := range r.SenderGbps {
		total += g
	}
	if total <= 0 {
		t.Fatalf("no goodput crossed the dumbbell: %+v", r)
	}
	// The trunk is the bottleneck: aggregate goodput can't exceed it.
	if total > FairnessTrunkGbps {
		t.Fatalf("aggregate goodput %.1f Gbps exceeds the %d Gbps trunk", total, FairnessTrunkGbps)
	}
	if r.Jain <= 0 || r.Jain > 1.0000001 {
		t.Fatalf("Jain index %f out of (0,1]", r.Jain)
	}
	// Contention evidence must land at the trunk port, not the access
	// links: queue buildup, and with droptail, actual drops.
	if r.Trunk.PeakQBytes == 0 {
		t.Fatal("no queue ever built at the shared trunk — not a bottleneck")
	}
}

// TestFairnessECNPath checks the dctcp plumbing through the dumbbell:
// with a marking discipline and a dctcp sender in the mix, CE marks must
// appear at the trunk (the receiver echoes because the rig enables ECN
// end-to-end when any contender is dctcp).
func TestFairnessECNPath(t *testing.T) {
	r := FairnessPointOn(sim.New(), []string{"dctcp", "cubic"},
		netsim.ECNThreshold(netsim.DefaultCoDelTargetNS, 0), 0, nil, topoDiffWarmup, topoDiffMeasure)
	if r.Trunk.Marks == 0 {
		t.Fatalf("no CE marks at the trunk with a dctcp contender: %+v", r.Trunk)
	}
}
