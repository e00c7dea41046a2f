package sim

import "testing"

// probe is a minimal Sleeper: it records every cycle it is ticked and
// reports the work schedule the test gives it.
type probe struct {
	ticked []int64
	next   func(now int64) int64
}

func (p *probe) Tick(cycle int64)       { p.ticked = append(p.ticked, cycle) }
func (p *probe) NextWork(n int64) int64 { return p.next(n) }

func dormant(int64) int64 { return Dormant }

func TestSkipJumpsToTimer(t *testing.T) {
	k := New()
	p := &probe{next: dormant}
	k.Register(p)
	fired := int64(0)
	k.At(1000, func() { fired = k.Now() })
	k.Run(2000)
	if fired != 1000 {
		t.Fatalf("timer fired at %d, want 1000", fired)
	}
	if k.Now() != 2000 {
		t.Fatalf("ended at %d, want 2000", k.Now())
	}
	// Only the timer cycle and the run boundary should have stepped.
	if len(p.ticked) != 2 || p.ticked[0] != 1000 || p.ticked[1] != 2000 {
		t.Fatalf("ticked cycles = %v, want [1000 2000]", p.ticked)
	}
	if k.SkippedCycles() != 1998 {
		t.Fatalf("skipped = %d, want 1998", k.SkippedCycles())
	}
}

func TestSkipHonorsNextWork(t *testing.T) {
	k := New()
	p := &probe{}
	p.next = func(now int64) int64 {
		if now < 50 {
			return 50
		}
		return Dormant
	}
	k.Register(p)
	k.Run(100)
	if len(p.ticked) != 2 || p.ticked[0] != 50 || p.ticked[1] != 100 {
		t.Fatalf("ticked cycles = %v, want [50 100]", p.ticked)
	}
}

// wakeProbe is a probe that takes a Waker: the kernel ticks it only
// when it is due.
type wakeProbe struct {
	probe
	w Waker
}

func (p *wakeProbe) SetWaker(w Waker) { p.w = w }

func TestWakeBoundsSkip(t *testing.T) {
	k := New()
	p := &wakeProbe{probe: probe{next: dormant}}
	k.Register(p)
	p.w.WakeAt(30)
	k.Run(100)
	// A bound component is not ticked at the run boundary: only its
	// wake made it due.
	if len(p.ticked) != 1 || p.ticked[0] != 30 {
		t.Fatalf("ticked cycles = %v, want [30]", p.ticked)
	}
	if k.SkippedCycles() != 98 {
		t.Fatalf("skipped = %d, want 98", k.SkippedCycles())
	}
}

func TestUnboundSleeperIsPolled(t *testing.T) {
	k := New()
	armed := false
	p := &probe{next: func(now int64) int64 {
		if armed && now < 40 {
			return 40
		}
		return Dormant
	}}
	k.Register(p)
	// Nothing can wake an unbound sleeper (its Waker is the zero one,
	// a no-op), so the kernel asks its NextWork before every skip.
	Waker{}.Wake()
	k.At(10, func() { armed = true })
	k.Run(100)
	if len(p.ticked) != 3 || p.ticked[0] != 10 || p.ticked[1] != 40 || p.ticked[2] != 100 {
		t.Fatalf("ticked cycles = %v, want [10 40 100]", p.ticked)
	}
}

func TestOpaqueTickerPinsStepping(t *testing.T) {
	k := New()
	p := &probe{next: dormant}
	k.Register(p)
	k.Register(TickerFunc(func(int64) {})) // no NextWork: opaque
	k.Run(100)
	if len(p.ticked) != 100 {
		t.Fatalf("ticked %d cycles, want 100 (opaque ticker must pin stepping)", len(p.ticked))
	}
	if k.SkippedCycles() != 0 {
		t.Fatalf("skipped = %d, want 0", k.SkippedCycles())
	}
}

func TestBusyTickerNeverSkips(t *testing.T) {
	k := New()
	p := &probe{}
	p.next = func(now int64) int64 { return now + 1 }
	k.Register(p)
	k.Run(50)
	if len(p.ticked) != 50 || k.SkippedCycles() != 0 {
		t.Fatalf("ticked %d (skipped %d), want 50 ticked, 0 skipped", len(p.ticked), k.SkippedCycles())
	}
}

func TestRunUntilHonorsStop(t *testing.T) {
	k := New()
	k.Register(TickerFunc(func(c int64) {
		if c == 5 {
			k.Stop()
		}
	}))
	if k.RunUntil(func() bool { return false }, 100) {
		t.Fatal("predicate reported true")
	}
	if k.Now() != 5 {
		t.Fatalf("stopped at %d, want 5", k.Now())
	}
}

func TestRunUntilExactOnStatePredicate(t *testing.T) {
	k := New()
	p := &probe{}
	p.next = func(now int64) int64 {
		if now < 40 {
			return 40
		}
		return Dormant
	}
	k.Register(p)
	ok := k.RunUntil(func() bool { return len(p.ticked) > 0 }, 1000)
	if !ok || k.Now() != 40 {
		t.Fatalf("RunUntil = %v at cycle %d, want true at 40 (state predicates see every transition)", ok, k.Now())
	}
}

// echoPair is a two-component rig exercising timers, wakes and
// self-generated work: each side, when it holds a token, burns a few
// busy cycles and then mails the token to its peer over a kernel timer
// — a miniature ping-pong with idle RTT gaps.
type echoPair struct {
	k        *Kernel
	peer     *echoPair
	delay    int64
	busyTil  int64
	hasToken bool
	log      *[]int64
	id       int64
	w        Waker
}

func (e *echoPair) SetWaker(w Waker) { e.w = w }

func (e *echoPair) Tick(cycle int64) {
	if e.hasToken && cycle >= e.busyTil {
		e.hasToken = false
		*e.log = append(*e.log, e.id*1_000_000_000+cycle)
		p := e.peer
		e.k.At(cycle+e.delay, func() {
			p.hasToken = true
			p.busyTil = cycle + e.delay + 3 // three busy cycles on arrival
			p.w.Wake()
		})
	}
}

func (e *echoPair) NextWork(now int64) int64 {
	if !e.hasToken {
		return Dormant
	}
	if e.busyTil > now+1 {
		return e.busyTil
	}
	return now + 1
}

func runEchoRig(k *Kernel) []int64 {
	var log []int64
	a := &echoPair{k: k, delay: 97, log: &log, id: 1}
	b := &echoPair{k: k, delay: 211, log: &log, id: 2}
	a.peer, b.peer = b, a
	a.hasToken = true
	k.Register(a)
	k.Register(b)
	k.Run(50_000)
	return log
}

func TestShadowMatchesSkipping(t *testing.T) {
	fast := runEchoRig(New())
	slow := runEchoRig(NewShadow())
	if len(fast) != len(slow) {
		t.Fatalf("event counts differ: skip=%d shadow=%d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("event %d differs: skip=%d shadow=%d", i, fast[i], slow[i])
		}
	}
	if len(fast) == 0 {
		t.Fatal("rig produced no events")
	}
}
