package sim_test

// The differential determinism battery: every experiment shape the repo
// measures runs on the serial and the sharded fabric, most of them on
// every row of simtest.FabricMatrix, and the numbers must agree to the
// last bit. Together
// with conformance.TestShardMatrix (the chaos leg) this is the evidence
// for the central claim in DESIGN.md: the sharded kernel is an
// execution strategy, not a different simulator.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/exp"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/telemetry"
)

// TestShardDiffEcho diffs the Figure 13 echo benchmark point (the
// worst-case TCB locality pattern) between the serial and the sharded
// fabric for every stack kind. It skips the shadow row, which costs
// minutes under -race; exp's TestSkipDifferentialEcho and
// TestWakeDiscipline run the echo rigs on the shadow kernel.
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
		mrps, frac := exp.EchoPointOn(sim.NewSharded(), stack, flows, nil)
		if math.Float64bits(mrps) != math.Float64bits(refMrps) ||
			math.Float64bits(frac) != math.Float64bits(refFrac) {
			t.Errorf("%s: sharded (%v, %v), serial (%v, %v)", stack, mrps, frac, refMrps, refFrac)
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
		simtest.FabricMatrix(t, func(f sim.Fabric) string {
			got := exp.TransferPointOn(f, c.stack, c.roundRobin, c.reqSize, c.cores, nil)
			if got.GoodputGbps == 0 {
				t.Fatalf("%s/rr=%v: moved no data", c.stack, c.roundRobin)
			}
			return fmt.Sprintf("%s/rr=%v: %v Gbps, %v Mrps", c.stack, c.roundRobin, got.GoodputGbps, got.Mrps)
		})
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

// TestShardDiffTelemetry holds each island's telemetry byte-identical
// across fabrics, series by series: same names in the same order, same
// timestamps, same sampled values.
func TestShardDiffTelemetry(t *testing.T) {
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		var b strings.Builder
		for isl, series := range instrumentedEcho(f) {
			if len(series) == 0 {
				t.Fatalf("island %d produced no series", isl)
			}
			for _, s := range series {
				fmt.Fprintf(&b, "%d %s %v %v\n", isl, s.Name, s.AtNS, s.Val)
			}
		}
		return b.String()
	})
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

	k = sim.NewShadow()
	k.Register(dormantSleeper{})
	runs["serial+noskip"] = observationCycles(k)

	sk := sim.NewSharded()
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
