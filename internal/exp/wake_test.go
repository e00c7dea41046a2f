package exp

import (
	"fmt"
	"strings"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/sim"
)

// The shadow kernel checks the wake discipline on every cycle it runs:
// a component the skipping kernel would leave idle may not have work,
// and no cached NextWork may be later than a fresh one where the
// skipping kernel would jump (see sim.NewShadow). Every rig family runs
// on it as a row of its fabric battery (see battery_test.go); the tests
// below break a wake on purpose and require the checker to catch it,
// naming the component.

// shadowRun runs fn on a fresh shadow kernel and returns the checker's
// panic, if any.
func shadowRun(t *testing.T, fn func(*testing.T, sim.Fabric)) (missed string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			missed = fmt.Sprint(r)
		}
	}()
	fn(t, sim.NewShadow())
	return ""
}

// With the completion-landing wake removed outright — the channels'
// Wakers zeroed after registration, so a landing wakes nobody — the
// checker must catch the machine sitting on completions.
func TestWakeDisciplineCatchesMissingWake(t *testing.T) {
	missed := shadowRun(t, func(t *testing.T, f sim.Fabric) {
		p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), nil)
		for _, e := range []*engine.Engine{p.EngA, p.EngB} {
			for _, ch := range e.Channels {
				ch.SetWaker(sim.Waker{})
			}
		}
		f.RegisterOn(IslandB, apps.NewSink(p.MachB.Threads(), 5001))
		f.Run(2_000)
		f.RegisterOn(IslandA, apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 1460))
		f.Run(100_000)
	})
	if !strings.Contains(missed, "missed wake") || !strings.Contains(missed, "*host.F4TMachine") {
		t.Fatalf("checker reported %q, want a missed wake naming *host.F4TMachine", missed)
	}
}

// With one FPC's enqueue path no longer marking its cached next cycle
// stale, the engine's own check on the shadow kernel must catch the
// routed event sitting in that FPC, and name it.
func TestWakeDisciplineCatchesMissingFPCStaleMark(t *testing.T) {
	missed := shadowRun(t, func(t *testing.T, f sim.Fabric) {
		p := NewF4TPairOn(f, 2, 2, cpu.DefaultCosts(), nil)
		p.EngA.FPCs()[0].BreakEnqueueStaleMark()
		f.RegisterOn(IslandB, apps.NewSink(p.MachB.Threads(), 5001))
		f.Run(2_000)
		f.RegisterOn(IslandA, apps.NewBulkSender(p.MachA.Threads(), 0, 5001, 1460))
		f.Run(100_000)
	})
	if !strings.Contains(missed, "missed FPC wake") || !strings.Contains(missed, " fpc 0 has work") {
		t.Fatalf("checker reported %q, want a missed FPC wake naming fpc 0", missed)
	}
}
