// Package simtest holds test helpers for code built on sim.Fabric.
package simtest

import (
	"fmt"
	"strings"
	"testing"

	"f4t/internal/sim"
)

// FabricMatrix is the fabric-differential battery: it runs the same rig
// on a fresh serial kernel (first; the reference), on the always-step
// shadow kernel and on the sharded fabric (one shard per island), and
// fails the test for every fabric whose digest is not identical to the
// serial one. run must build its whole rig on the fabric it is handed
// and fold everything it wants compared into the returned string. The
// serial digest is returned.
//
// A mismatch names the first differing line of the two digests and
// prints both; a rig that logs one line per sampled window, stamped with
// its cycle, is thereby told the window it diverged in. A panic on a row
// (the shadow kernel's wake checker panics, naming the component) is
// reported under that row's name; a panic on the serial row ends the
// test, since nothing is left to compare against. A panic inside a
// shard's goroutine cannot be recovered here and still ends the binary.
func FabricMatrix(t testing.TB, run func(sim.Fabric) string) string {
	t.Helper()
	want, panicked := runRow(run, sim.New())
	if panicked != nil {
		t.Fatalf("serial panicked: %v", panicked)
	}
	for _, row := range []struct {
		name string
		f    sim.Fabric
	}{{"shadow", sim.NewShadow()}, {"sharded", sim.NewSharded()}} {
		got, panicked := runRow(run, row.f)
		switch {
		case panicked != nil:
			t.Errorf("%s panicked: %v", row.name, panicked)
		case got != want:
			t.Errorf("%s diverged from serial %s", row.name, firstDiff(got, want))
		}
	}
	return want
}

// runRow runs one row and recovers its panic, if any. A t.Fatal inside
// run is a runtime.Goexit, not a panic, and passes through.
func runRow(run func(sim.Fabric) string, f sim.Fabric) (digest string, panicked any) {
	defer func() { panicked = recover() }()
	return run(f), nil
}

// firstDiff says where got and want part: the first differing line
// (numbered from 1) with both texts, or the first line only one of
// them has.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := min(len(g), len(w))
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("at line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	if len(g) > n {
		return fmt.Sprintf("at line %d: got %d lines, want %d; extra: %s", n+1, len(g), len(w), g[n])
	}
	return fmt.Sprintf("at line %d: got %d lines, want %d; missing: %s", n+1, len(g), len(w), w[n])
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
