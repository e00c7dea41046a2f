package sim_test

// The differential determinism battery: every experiment shape the repo
// measures is run twice — once on the serial Kernel, once on a
// ShardedKernel at several shard counts — and the numbers must agree to
// the last bit. Together with conformance.TestShardMatrix (the chaos
// leg) this is the evidence for the central claim in DESIGN.md: the
// sharded kernel is an execution strategy, not a different simulator.

import (
	"fmt"
	"math"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/exp"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// shardCounts picks the sharded fabrics to diff against the serial
// reference. 1 exercises the degenerate single-shard fabric path; 8
// leaves most shards empty (both islands land on shards 0 and 1).
func shardCounts(t *testing.T) []int {
	if testing.Short() {
		return []int{2}
	}
	return []int{1, 2, 4, 8}
}

// TestShardDiffEcho diffs the Figure 13 echo benchmark point (the
// worst-case TCB locality pattern) across fabrics for every stack kind.
func TestShardDiffEcho(t *testing.T) {
	stacks := []string{"linux", "f4t-hbm", "f4t-ddr"}
	if testing.Short() {
		stacks = stacks[:2]
	}
	const flows = 64
	for _, stack := range stacks {
		refMrps, refFrac := exp.EchoPointOn(sim.New(), stack, flows, nil)
		if refFrac == 0 {
			t.Fatalf("%s: no flows established on the serial reference", stack)
		}
		for _, n := range shardCounts(t) {
			mrps, frac := exp.EchoPointOn(sim.NewSharded(n), stack, flows, nil)
			if math.Float64bits(mrps) != math.Float64bits(refMrps) ||
				math.Float64bits(frac) != math.Float64bits(refFrac) {
				t.Errorf("%s/shards=%d: (%v, %v), serial (%v, %v)",
					stack, n, mrps, frac, refMrps, refFrac)
			}
		}
	}
}

// TestShardDiffTransfer diffs the Figure 8/9 transfer points: a
// saturated bulk f4t run and a linux round-robin run.
func TestShardDiffTransfer(t *testing.T) {
	cases := []struct {
		stack      string
		roundRobin bool
		reqSize    int
		cores      int
	}{
		{"f4t", false, 65536, 2},
		{"linux", true, 4096, 2},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/rr=%v", c.stack, c.roundRobin)
		ref := exp.TransferPointOn(sim.New(), c.stack, c.roundRobin, c.reqSize, c.cores, nil)
		if ref.GoodputGbps == 0 {
			t.Fatalf("%s: serial reference moved no data", name)
		}
		for _, n := range shardCounts(t) {
			got := exp.TransferPointOn(sim.NewSharded(n), c.stack, c.roundRobin, c.reqSize, c.cores, nil)
			if math.Float64bits(got.GoodputGbps) != math.Float64bits(ref.GoodputGbps) ||
				math.Float64bits(got.Mrps) != math.Float64bits(ref.Mrps) {
				t.Errorf("%s/shards=%d: %+v, serial %+v", name, n, got, ref)
			}
		}
	}
}

// instrumentedEcho runs a small instrumented echo rig on the given
// fabric with one registry and sampler per island (a shared registry
// would race across shards) and returns each island's series, island A
// first.
func instrumentedEcho(f sim.Fabric) [2][]*telemetry.Series {
	p := exp.NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), nil)
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	p.EngA.Instrument(regA, "eng_a")
	p.MachA.Instrument(regA, "mach_a")
	p.EngB.Instrument(regB, "eng_b")
	p.MachB.Instrument(regB, "mach_b")
	sA := telemetry.StartSampler(p.KA, regA, 10_000, 0)
	sB := telemetry.StartSampler(p.KB, regB, 10_000, 0)

	const port = 9001
	srv := apps.NewEchoServer(p.MachB.Threads(), port, 128)
	f.RegisterOn(exp.IslandB, srv)
	f.Run(2_000)
	cl := apps.NewEchoClient(f.IslandKernel(exp.IslandA), p.MachA.Threads(), 0, port, 128, 8)
	f.RegisterOn(exp.IslandA, cl)
	f.Run(600_000)
	return [2][]*telemetry.Series{sA.Series(), sB.Series()}
}

// TestShardDiffTelemetry holds each island's telemetry of a sharded rig
// byte-identical to the serial rig's, series by series: same names in
// the same order, same timestamps, same sampled values.
func TestShardDiffTelemetry(t *testing.T) {
	ref := instrumentedEcho(sim.New())
	for isl := range ref {
		if len(ref[isl]) == 0 {
			t.Fatalf("island %d: serial reference produced no series", isl)
		}
	}
	for _, n := range shardCounts(t) {
		got := instrumentedEcho(sim.NewSharded(n))
		for isl := range ref {
			if len(got[isl]) != len(ref[isl]) {
				t.Fatalf("shards=%d island %d: %d series, serial %d", n, isl, len(got[isl]), len(ref[isl]))
			}
			for i, rs := range ref[isl] {
				gs := got[isl][i]
				if gs.Name != rs.Name || len(gs.AtNS) != len(rs.AtNS) {
					t.Fatalf("shards=%d island %d: series %d = %s (%d pts), serial %s (%d pts)",
						n, isl, i, gs.Name, len(gs.AtNS), rs.Name, len(rs.AtNS))
				}
				for j := range rs.AtNS {
					if gs.AtNS[j] != rs.AtNS[j] || gs.Val[j] != rs.Val[j] {
						t.Fatalf("shards=%d: %s point %d = (%d, %d), serial (%d, %d)",
							n, rs.Name, j, gs.AtNS[j], gs.Val[j], rs.AtNS[j], rs.Val[j])
					}
				}
			}
		}
	}
}

// dormantSleeper is a ticker with no work, so cycle skipping is free to
// fast-forward across the whole run.
type dormantSleeper struct{}

func (dormantSleeper) Tick(int64)           {}
func (dormantSleeper) NextWork(int64) int64 { return sim.Dormant }

// observationCycles records the cycle at which RunUntilCoarse evaluates
// its predicate, for the full budget.
func observationCycles(r sim.Runner) []int64 {
	var obs []int64
	exp.RunUntilCoarse(r, func() bool {
		obs = append(obs, r.Now())
		return false
	}, 500, 10_000)
	return obs
}

// TestRunUntilObservationGrid pins the fix for predicate-observation
// divergence under cycle skipping: RunUntilCoarse evaluates its
// predicate on a fixed cycle grid (start, start+step, ...), so the
// observation cycles are identical whether the kernel skips, doesn't,
// or runs sharded. A predicate that reads mutable rig state therefore
// sees the same snapshots on every execution mode.
func TestRunUntilObservationGrid(t *testing.T) {
	runs := map[string][]int64{}

	k := sim.New()
	k.Register(dormantSleeper{})
	runs["serial+skip"] = observationCycles(k)

	k = sim.New()
	k.Register(dormantSleeper{})
	k.SetSkipping(false)
	runs["serial+noskip"] = observationCycles(k)

	sk := sim.NewSharded(2)
	sk.RegisterOn(0, dormantSleeper{})
	sk.RegisterOn(1, dormantSleeper{})
	runs["sharded"] = observationCycles(sk)

	var want []int64
	for c := int64(0); c <= 10_000; c += 500 {
		want = append(want, c)
	}
	for mode, got := range runs {
		if len(got) != len(want) {
			t.Fatalf("%s: %d observations %v, want %d", mode, len(got), got, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: observation %d at cycle %d, want %d", mode, i, got[i], want[i])
			}
		}
	}
}
