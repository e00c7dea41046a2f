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
	want := run(sim.New())
	check := func(name string, f sim.Fabric) {
		t.Helper()
		if got := run(f); got != want {
			t.Errorf("%s diverged from serial\n got %s\nwant %s", name, got, want)
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
	return want
}
