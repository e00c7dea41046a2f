// Package simtest holds test helpers for code built on sim.Fabric.
package simtest

import (
	"fmt"
	"testing"

	"f4t/internal/sim"
)

// FabricMatrix is the fabric-differential battery: it runs the same rig
// on a fresh serial kernel (first; the reference), on the always-step
// shadow kernel, and on 2-, 4- and 8-shard fabrics (-short: 2 only),
// and fails the test for every fabric whose digest is not identical to
// the serial one. run must build its whole rig on the fabric it is
// handed and fold everything it wants compared into the returned
// string. The serial digest is returned.
func FabricMatrix(t *testing.T, run func(sim.Fabric) string) string {
	t.Helper()
	want, diffs := matrix(run)
	for _, d := range diffs {
		t.Error(d)
	}
	return want
}

// FabricMatrixSettled is FabricMatrix for rigs that block real
// goroutines in the netapi facade. Their digest is reproducible only
// while every goroutine meets its settle window (DESIGN.md §14), and a
// loaded host occasionally misses one — an ACK more or less, on any
// fabric including the serial reference. A missed window is random
// where fabric dependence is systematic, so the matrix is attempted up
// to three times and passes as soon as one attempt is unanimous.
func FabricMatrixSettled(t *testing.T, run func(sim.Fabric) string) string {
	t.Helper()
	for attempt := 1; ; attempt++ {
		want, diffs := matrix(run)
		if len(diffs) == 0 {
			return want
		}
		if attempt == 3 {
			for _, d := range diffs {
				t.Error(d)
			}
			return want
		}
		t.Logf("attempt %d not unanimous, retrying: %s", attempt, diffs[0])
	}
}

func matrix(run func(sim.Fabric) string) (want string, diffs []string) {
	want = run(sim.New())
	check := func(name string, f sim.Fabric) {
		if got := run(f); got != want {
			diffs = append(diffs, fmt.Sprintf("%s diverged from serial\n got %s\nwant %s", name, got, want))
		}
	}
	check("noskip", sim.NewShadow())
	shards := []int{2, 4, 8}
	if testing.Short() {
		shards = shards[:1]
	}
	for _, n := range shards {
		check(fmt.Sprintf("%d shards", n), sim.NewSharded(n))
	}
	return want, diffs
}
