package sim

import (
	"strings"
	"testing"
)

// actor is a bound component whose Tick runs a test-supplied action and
// whose NextWork reports a settable cycle.
type actor struct {
	wakeProbe
	at  int64 // NextWork's answer while in the future; Dormant after
	act func(cycle int64)
}

func newActor() *actor {
	a := &actor{at: Dormant}
	a.next = func(now int64) int64 {
		if a.at > now {
			return a.at
		}
		return Dormant
	}
	return a
}

func (a *actor) Tick(cycle int64) {
	a.probe.Tick(cycle)
	if a.act != nil {
		a.act(cycle)
	}
}

func TestWakeSameCycleRule(t *testing.T) {
	for _, k := range []*Kernel{New(), NewShadow()} {
		a, b := newActor(), newActor()
		a.at = 10
		b.at = 20
		a.act = func(c int64) {
			if c == 10 {
				b.w.Wake() // b has not ticked yet: same cycle
			}
		}
		b.act = func(c int64) {
			if c == 20 {
				a.w.Wake() // a already ticked: next cycle
			}
		}
		k.Register(a)
		k.Register(b)
		k.Run(100) // the shadow kernel ticks every cycle and checks
		if !k.Skipping() {
			continue
		}
		if got := a.ticked; len(got) != 2 || got[0] != 10 || got[1] != 21 {
			t.Errorf("a ticked %v, want [10 21]", got)
		}
		if got := b.ticked; len(got) != 2 || got[0] != 10 || got[1] != 20 {
			t.Errorf("b ticked %v, want [10 20]", got)
		}
	}
}

func TestTimerMakesItsOwnerDue(t *testing.T) {
	k := New()
	a, b := newActor(), newActor()
	a.at = 5
	a.act = func(c int64) {
		if c == 5 {
			k.At(50, func() {}) // runs as a: a is due at 50
		}
	}
	k.Register(a)
	k.Register(b)
	k.At(70, func() {}) // external: everyone is due at 70
	k.Run(100)
	if got := a.ticked; len(got) != 3 || got[0] != 5 || got[1] != 50 || got[2] != 70 {
		t.Errorf("a ticked %v, want [5 50 70]", got)
	}
	if got := b.ticked; len(got) != 1 || got[0] != 70 {
		t.Errorf("b ticked %v, want [70]", got)
	}
}

// wantMissedWake runs fn and fails unless it panics with a missed-wake
// report naming the given type.
func wantMissedWake(t *testing.T, typ string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "missed wake") || !strings.Contains(msg, typ) {
			t.Fatalf("panic %v, want a missed wake naming %s", r, typ)
		}
	}()
	fn()
}

func TestShadowCatchesUnwokenWork(t *testing.T) {
	// b hands a work due next cycle without waking it: the skipping
	// kernel would leave a idle on a cycle it has work. (The opaque
	// ticker keeps the kernel stepping, so only this check can see it.)
	k := NewShadow()
	a, b := newActor(), newActor()
	b.at = 30
	b.act = func(c int64) {
		if c == 30 {
			a.at = c + 1
		}
	}
	k.Register(a)
	k.Register(b)
	k.Register(TickerFunc(func(int64) {}))
	wantMissedWake(t, "slot 0 (*sim.actor) has work in cycle 31 (NextWork(30) = 31)", func() { k.Run(100) })
}

func TestShadowCatchesLateCache(t *testing.T) {
	// b hands a work due in 40 cycles without waking it: the skipping
	// kernel would jump past it.
	k := NewShadow()
	a, b := newActor(), newActor()
	b.at = 30
	b.act = func(c int64) {
		if c == 30 {
			a.at = c + 40
		}
	}
	k.Register(a)
	k.Register(b)
	wantMissedWake(t, "slot 0 (*sim.actor) has work in cycle 70 but its next cycle is 9223372036854775807; the kernel would skip to", func() { k.Run(100) })
}

// gaugeMap is a Gauges that keeps its readers by name.
type gaugeMap map[string]func() int64

func (g gaugeMap) Gauge(name string, fn func() int64) { g[name] = fn }

func TestKernelInstrumentAddsUp(t *testing.T) {
	for _, k := range []*Kernel{New(), NewShadow()} {
		a, b := newActor(), newActor()
		a.at = 10
		a.act = func(c int64) {
			if c < 500 {
				a.at = c + 7
				k.At(c+3, func() {})
			}
		}
		b.act = func(c int64) {
			if c%5 == 0 {
				a.w.WakeAt(c + 2)
			}
		}
		k.Register(a)
		k.Register(b)
		k.Register(&probe{next: dormant}) // unbound
		g := gaugeMap{}
		k.Instrument(g, "sim")
		k.Run(1000)
		v := func(name string) int64 {
			fn, ok := g[name]
			if !ok {
				t.Fatalf("no gauge %s in %v", name, g)
			}
			return fn()
		}
		steps := v("sim.stepped_cycles")
		if steps+v("sim.skipped_cycles") != 1000 {
			t.Errorf("skip=%v: %d stepped + %d skipped != 1000 cycles", k.Skipping(), steps, v("sim.skipped_cycles"))
		}
		if run, elided := v("sim.ticks_run"), v("sim.ticks_elided"); run+elided != 3*steps {
			t.Errorf("skip=%v: %d ticks run + %d elided != %d stepped x 3", k.Skipping(), run, elided, steps)
		}
		by := v("sim.steps_by.0_sim.actor") + v("sim.steps_by.1_sim.actor") + v("sim.steps_by.timer") + v("sim.steps_by.other")
		if by != steps {
			t.Errorf("skip=%v: steps_by sums to %d, stepped %d", k.Skipping(), by, steps)
		}
		if k.Skipping() && (v("sim.steps_by.0_sim.actor") == 0 || v("sim.steps_by.timer") == 0 || v("sim.ticks_elided") == 0) {
			t.Errorf("counters missed a cause: %v", g)
		}
	}
}
