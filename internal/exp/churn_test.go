package exp

import (
	"os"
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// smallChurn is the shard-battery configuration: small enough that three
// full fabric runs stay inside a few seconds, but with lifetimes short
// enough that the run sees real departures, replacements, TIME_WAIT
// recycling, and at least one cuckoo-table resize.
func smallChurn() ChurnConfig {
	return ChurnConfig{
		TargetFlows:   4096,
		Clients:       8,
		SustainCycles: 200_000,
		Budget:        2_000_000,
		LifetimeXM:    50_000,
		LifetimeAlpha: 1.2,
		Seed:          7,
	}
}

// TestChurnShardDifferential is the determinism battery for the churn
// rig: the serial, shadow and sharded fabrics must produce bit-identical
// digests. The digest folds in every counter the rig exposes — opens,
// establishes, departures, close/abort splits, per-side packet and
// event counts, cuckoo table internals (kicks, stash traffic, resizes),
// and link byte totals — so any divergence in packet ordering or timer
// interleaving across fabrics fails loudly.
func TestChurnShardDifferential(t *testing.T) {
	cfg := smallChurn()
	ref := churnMatrix(t, cfg)
	if !ref.Reached {
		t.Fatalf("serial run never reached %d flows (live at end %d)", cfg.TargetFlows, ref.LiveAtEnd)
	}
	if ref.Departed == 0 {
		t.Fatalf("serial run saw no departures; the battery must exercise churn")
	}
	if ref.ServerTable.Resizes == 0 {
		t.Fatalf("serial run never grew the flow table; raise the target")
	}
}

// churnMatrix runs cfg through the fabric matrix on the rig's digest and
// returns the serial run (FabricMatrix's first) for property checks.
func churnMatrix(t *testing.T, cfg ChurnConfig) *ChurnResult {
	t.Helper()
	var serial *ChurnResult
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		r := ChurnOn(f, cfg)
		if serial == nil {
			serial = r
		}
		return r.Digest
	})
	return serial
}

// TestChurnFullScaleDifferential is the acceptance run: the full 2^20
// configuration on all three fabrics, digests bit-identical. It takes a
// couple of minutes of wall time, so it only runs when asked for
// explicitly: F4T_FULL_CHURN=1 go test ./internal/exp/ -run FullScale
func TestChurnFullScaleDifferential(t *testing.T) {
	if os.Getenv("F4T_FULL_CHURN") == "" {
		t.Skip("set F4T_FULL_CHURN=1 to run the full 2^20 differential (~2 min)")
	}
	cfg := DefaultChurnConfig()
	ref := churnMatrix(t, cfg)
	t.Logf("serial: %s", ref.Digest)
	if !ref.Reached {
		t.Fatalf("serial run never reached %d flows (live at end %d)", cfg.TargetFlows, ref.LiveAtEnd)
	}
	if ref.LiveAtEnd < int64(cfg.TargetFlows) {
		t.Fatalf("plateau lost during sustain: live=%d < target=%d", ref.LiveAtEnd, cfg.TargetFlows)
	}
}

// TestChurnQuickReachesTarget runs the quick (2^17) configuration once
// and checks the rig's acceptance properties: the target plateau is
// reached, churn actually occurs during the run, no client saturates
// its port/slot budget, and the plateau holds through the sustain
// window. Skipped under -short; the run takes a few seconds.
func TestChurnQuickReachesTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("quick churn run takes several seconds")
	}
	cfg := QuickChurnConfig()
	r := ChurnOn(sim.New(), cfg)
	t.Logf("churn quick: %s", r.Digest)
	if !r.Reached {
		t.Fatalf("did not reach %d concurrent flows (live at end %d)", cfg.TargetFlows, r.LiveAtEnd)
	}
	if r.Departed == 0 {
		t.Fatalf("no departures: lifetimes never overlapped the run window")
	}
	if r.DialRejected != 0 {
		t.Fatalf("%d dials rejected: client port/slot budget exhausted", r.DialRejected)
	}
	if r.LiveAtEnd < int64(cfg.TargetFlows) {
		t.Fatalf("plateau lost during sustain: live=%d < target=%d", r.LiveAtEnd, cfg.TargetFlows)
	}
	// The reported rate is opens over the cycles they were opened in, so
	// the driver's burst cap bounds it.
	if max := float64(churnDialsPerStep) / churnStepCycles; r.OpenRate() <= 0 || r.OpenRate() > max {
		t.Fatalf("open rate %.4f conns/cycle, want (0, %.4f]", r.OpenRate(), max)
	}
	// Accounted server state (Conn with its TCB, per-ID table rows, flow-
	// table entry, parser flow) is machine-independent and measures
	// ~650 B/flow; past 800 a per-flow structure is counted twice (the
	// TCB is inside the Conn) or an arena stopped being shared.
	if r.ServerBytesFlow <= 0 || r.ServerBytesFlow > 800 {
		t.Fatalf("memory accounting reported %.0f bytes/flow, want (0, 800]", r.ServerBytesFlow)
	}
}
