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

// Probe is a bound component (sim.Wakeable) for wake tests: each cycle
// it is due it records the cycle and runs Act; Next is its NextWork
// (nil: Dormant). Register it, then hand W to the wake site under test.
type Probe struct {
	Ticked []int64
	Act    func(cycle int64)
	Next   func(now int64) int64
	W      sim.Waker
}

// Tick implements sim.Ticker.
func (p *Probe) Tick(cycle int64) {
	p.Ticked = append(p.Ticked, cycle)
	if p.Act != nil {
		p.Act(cycle)
	}
}

// NextWork implements sim.Sleeper.
func (p *Probe) NextWork(now int64) int64 {
	if p.Next == nil {
		return sim.Dormant
	}
	return p.Next(now)
}

// SetWaker implements sim.Wakeable.
func (p *Probe) SetWaker(w sim.Waker) { p.W = w }

// At returns a Probe that acts once, at cycle c.
func At(c int64, act func()) *Probe {
	return &Probe{
		Act: func(cycle int64) {
			if cycle == c {
				act()
			}
		},
		Next: func(now int64) int64 {
			if now < c {
				return c
			}
			return sim.Dormant
		},
	}
}
