package conformance

import (
	"fmt"
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// TestShardMatrix is the conformance leg of the differential battery:
// every rig kind, several chaos seeds, on every fabric — everything a
// Result captures (violations, drain verdict, forged/dropped RST
// counts, end cycle; the schedule is a pure function of the seed, so it
// is omitted) must be bit-identical. This is the strongest whole-system
// determinism check in the repo: the chaos schedules exercise loss,
// reordering, duplication, forged RSTs, zero windows and churn across
// the shard boundary.
func TestShardMatrix(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	kinds := AllRigs
	if testing.Short() {
		seeds = seeds[:3]
		kinds = []RigKind{RigEngineEngine}
	}
	for _, kind := range kinds {
		for _, seed := range seeds {
			cfg := Config{Rig: kind, Seed: seed, Phases: 4, Conns: 3, Chunk: 2048}
			simtest.FabricMatrix(t, func(f sim.Fabric) string {
				r := RunOn(f, cfg)
				return fmt.Sprintf("%s/seed=%d: end=%d drained=%v forged=%d oow=%d violations=%+v",
					kind, seed, r.EndCycle, r.Drained, r.ForgedRSTs, r.OowRstDrops, r.Violations)
			})
		}
	}
}
