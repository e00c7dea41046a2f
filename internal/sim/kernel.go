package sim

import (
	"fmt"
	"math"
)

// CycleNS is the duration of one engine clock cycle in nanoseconds.
// FtEngine operates at 250 MHz (paper §4.1).
const CycleNS = 4

// FrequencyHz is the engine clock frequency.
const FrequencyHz = 250_000_000

// Ticker is a hardware component stepped once per simulated cycle.
type Ticker interface {
	// Tick advances the component by one cycle. The current cycle number
	// is passed for convenience; it increases by exactly one per call.
	Tick(cycle int64)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(cycle int64)

// Tick implements Ticker.
func (f TickerFunc) Tick(cycle int64) { f(cycle) }

// Dormant is the NextWork return value for a component with no
// self-generated future work: only an external stimulus (a kernel timer
// it scheduled, or a Wake) can make it act.
const Dormant = int64(math.MaxInt64)

// Sleeper is a Ticker that can report idleness. NextWork returns the
// earliest cycle at which the component could possibly act: a value
// <= now means "busy, step me next cycle"; a future cycle promises that
// every Tick before it would be a pure no-op (no state change, no
// counter movement); Dormant promises that indefinitely. The promise
// covers the component's own state only. Work injected from outside
// must arrive through a kernel timer or a Wake (see Wakeable).
//
// The kernel asks NextWork right after the component's own Tick, and
// for every component on entry to Run and RunUntil. A Wakeable's answer
// is cached until then; any other Sleeper is asked again before every
// skip.
type Sleeper interface {
	Ticker
	NextWork(now int64) int64
}

// Wakeable is a Sleeper that takes a wake handle: Register hands it a
// Waker, and from then on the kernel ticks it only on the cycles it is
// due — its cached NextWork, a timer it scheduled firing, or a Wake —
// instead of on every stepped cycle. In exchange, every piece of code
// outside the component that can make it busy must Wake it through that
// Waker: a packet delivery, a doorbell, a completion landing, a
// readiness event queued for it, a timer armed on its behalf. A
// Sleeper without SetWaker (a decorator, a test fake) is unbound: it
// ticks on every stepped cycle and its NextWork is asked before every
// skip, as if nothing were cached.
type Wakeable interface {
	Sleeper
	SetWaker(w Waker)
}

// Waker is a registered component's wake handle: its kernel and its
// index in the tick list. The zero Waker is a no-op, which is what an
// unbound component needs: the kernel polls its NextWork before every
// skip, so there is nothing to tell it. A Waker is a value; wake sites
// store it and call it without allocating.
type Waker struct {
	k *Kernel
	i int32
}

// Wake says the target has work now. Raised in cycle c, it makes the
// target due in c when the target has not ticked yet in c — from the
// timer phase, or from a component earlier in tick order — which is the
// tick the always-step loop gave it; otherwise in c+1. A wake raised by
// the target's own Tick is dropped: its NextWork is asked next.
func (w Waker) Wake() {
	if w.k != nil {
		w.WakeAt(w.k.cycle)
	}
}

// WakeAt says the target has work at the given cycle; a cycle not in
// the future is Wake. Wakes only ever bring a component's next tick
// forward.
func (w Waker) WakeAt(cycle int64) {
	k := w.k
	if k == nil {
		return
	}
	if cycle <= k.cycle {
		if w.i == k.pos {
			return
		}
		cycle = k.cycle
		if w.i < k.pos {
			cycle++ // already ticked this cycle
		}
	}
	if e := &k.tickers[w.i]; cycle < e.wake {
		e.wake = cycle
	}
}

// Ticking reports whether the target is the component whose Tick is
// running: a wake from there is redundant, since the kernel asks its
// NextWork when the Tick returns.
func (w Waker) Ticking() bool { return w.k != nil && w.i == w.k.pos }

// Runner is the surface shared by the serial Kernel and the
// ShardedKernel: everything a workload driver needs to advance
// simulated time. Rig harnesses written against Runner run unchanged on
// either execution mode.
type Runner interface {
	Now() int64
	NowNS() int64
	Run(n int64)
	RunUntil(pred func() bool, budget int64) bool
	Stop()
}

// PostAt schedules fn at an absolute cycle. It is the type of Kernel.At
// and of the cross-shard posting funcs a Fabric hands out.
type PostAt func(cycle int64, fn func())

// Poster schedules callbacks at absolute cycles. At takes a closure;
// AtCall takes a plain function plus its argument, which lets per-packet
// hot paths schedule a delivery without allocating a closure (storing a
// pointer in an `any` does not allocate). Both forms share the same
// deterministic ordering key. The Kernel and the cross-shard Mailbox
// both implement Poster; Fabric.CrossPost hands one out.
type Poster interface {
	At(cycle int64, fn func())
	AtCall(cycle int64, call func(arg any), arg any)
}

// Fabric abstracts where a rig's components live: on a single serial
// Kernel (every island shares it) or spread across the shards of a
// ShardedKernel. Rig builders target Fabric so one construction path
// yields both execution modes with identical registration order — the
// property the bit-for-bit differential battery depends on.
//
// An island is a group of components that share state directly (an
// engine plus its host machine and apps). Cross-island interactions
// must go through the Poster returned by CrossPost, which carries the
// link's minimum latency so the sharded scheduler can derive its
// conservative lookahead.
type Fabric interface {
	Runner
	// IslandKernel returns the kernel that drives the island's clock:
	// the Kernel itself on a serial fabric, the owning shard otherwise.
	IslandKernel(island int) *Kernel
	// RegisterOn registers t on the island's kernel. Components must be
	// registered in the same global order on every fabric; the slot
	// numbers this assigns are the deterministic tie-break for timers.
	RegisterOn(island int, t Ticker)
	// CrossPost returns the scheduler for deliveries from src to dst.
	// minLatency is the smallest possible cycle delta between posting
	// and the posted cycle; it lower-bounds the fabric's lookahead.
	CrossPost(src, dst int, minLatency int64) Poster
}

// timerEvent is a scheduled callback ordered by a structured key that
// is identical whether the rig runs on one kernel or across shards:
//
//	(cycle, icycle, slot, sub)
//
// cycle is the fire cycle. The remaining fields identify the insertion
// deterministically: icycle is the cycle the event was scheduled on,
// slot is the global registration slot of the component whose code
// scheduled it (-1 for code running outside any component, e.g. test
// setup), and sub is that context's monotonically increasing insertion
// counter. Because no field depends on goroutine interleaving — only on
// the inserting component's own deterministic execution — merging
// cross-shard events into a shard's heap reproduces exactly the firing
// order a single serial kernel would have used.
type timerEvent struct {
	cycle  int64         // fire cycle
	icycle int64         // insertion cycle
	slot   int32         // inserting context's global slot (-1 = external)
	idx    int32         // inserting component's local index, due when it fires (-1: none)
	sub    int64         // per-context insertion counter
	fn     func()        // closure form (At)
	call   func(arg any) // call form (AtCall); fires call(arg) when non-nil
	arg    any
}

func keyLess(a, b *timerEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.icycle != b.icycle {
		return a.icycle < b.icycle
	}
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.sub < b.sub
}

// timerHeap is a hand-rolled binary min-heap ordered by keyLess. The
// kernel schedules one timer per DMA completion, TX serialization, and
// link delivery, so the interface boxing container/heap would impose
// (one allocation per Push and per Pop) is a measurable cost on
// saturated rigs; sifting over the concrete slice keeps the hot path
// allocation-free.
type timerHeap []timerEvent

func (h *timerHeap) push(ev timerEvent) {
	s := append(*h, ev)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *timerHeap) pop() timerEvent {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = timerEvent{} // release fn/arg references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && keyLess(&s[l], &s[min]) {
			min = l
		}
		if r < n && keyLess(&s[r], &s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return ev
}

// tickerEntry is one registered component plus its sleep bookkeeping.
type tickerEntry struct {
	t     Ticker
	s     Sleeper // nil for opaque (non-Sleeper) tickers
	bound bool    // Wakeable: ticked only when due
	next  int64   // bound: cached NextWork; unbound: always due
	wake  int64   // earliest pending wake; Dormant when none
	slot  int32   // global registration slot (ties across shards)
	sub   int64   // timer-insertion counter for this component's code
	woke  int64   // stepped cycles this component's cached value or wake caused
}

// alwaysDue is an unbound entry's next: every stepped cycle ticks it.
const alwaysDue = math.MinInt64

// idle is Kernel.pos outside the tick phase: every component has ticked.
const idle = math.MaxInt32

// Kernel is the simulation driver. The zero value is not usable; call New.
type Kernel struct {
	cycle    int64
	tickers  []tickerEntry
	opaque   int // registered tickers without NextWork
	timers   timerHeap
	nextSlot int32
	extSub   int64 // insertion counter for code outside any component
	stopped  bool

	// Current insertion context: which component's code is running.
	// curSub is nil while executing a timer posted by a component on
	// another shard — such callbacks must not schedule local timers
	// (they would need that foreign component's counter, which lives on
	// its own shard); they post through their Mailbox instead.
	curSlot int32
	curIdx  int32 // local index of curSlot's component; -1 when none
	curSub  *int64

	// pos is where the current cycle stands for wakes: -1 in the timer
	// phase, i while tickers[i] ticks, idle once all have (and between
	// steps).
	pos int32

	noskip  bool  // shadow mode: always-step loop plus the wake checker
	checkTo int64 // shadow: the skipping kernel's next stepped cycle
	skipped int64 // total cycles skipped (stats)
	skips   int64 // skip jumps taken (stats)
	steps   int64 // stepped cycles
	ticks   int64 // component ticks run
	elided  int64 // component ticks not run on a stepped cycle
	byTimer int64 // steps caused by a timer alone
	byOther int64 // steps no cached value, wake or timer asked for
}

// New returns an empty kernel positioned at cycle 0 with quiescence
// skipping enabled.
func New() *Kernel {
	k := &Kernel{curSlot: -1, curIdx: -1, pos: idle}
	k.curSub = &k.extSub
	return k
}

// NewShadow returns a kernel running the always-step loop with the wake
// checker armed — the reference for differential testing against the
// skipping kernel (see SetSkipping).
func NewShadow() *Kernel {
	k := New()
	k.noskip = true
	return k
}

// SetSkipping enables or disables quiescence skipping. Results are
// identical either way. Disabled, the kernel ticks every component on
// every cycle but keeps the NextWork cache exactly as the skipping
// kernel does, so RunUntil observes the same cycles, and it checks the
// wake discipline, panicking with the component's slot and type when
//
//   - on a cycle c the skipping kernel would step, a component it would
//     leave idle has a fresh NextWork(c-1) <= c (its state changed and
//     nobody woke it), or
//   - where the skipping kernel would skip, a component's cached value
//     is later than a fresh NextWork (the kernel would reach it late).
func (k *Kernel) SetSkipping(on bool) { k.noskip = !on }

// Skipping reports whether quiescence skipping is enabled.
func (k *Kernel) Skipping() bool { return !k.noskip }

// SkippedCycles returns the total cycles fast-forwarded so far.
func (k *Kernel) SkippedCycles() int64 { return k.skipped }

// Skips returns how many fast-forward jumps have been taken.
func (k *Kernel) Skips() int64 { return k.skips }

// Now returns the current cycle number.
func (k *Kernel) Now() int64 { return k.cycle }

// NowNS returns the current simulated time in nanoseconds.
func (k *Kernel) NowNS() int64 { return k.cycle * CycleNS }

// Register adds a component to the tick list. Components tick in
// registration order. A Wakeable is bound (handed its Waker) and ticks
// only when due; any other Sleeper ticks on every stepped cycle; a
// ticker without NextWork pins the kernel to per-cycle stepping.
func (k *Kernel) Register(t Ticker) {
	k.RegisterSlot(t, k.nextSlot)
}

// RegisterSlot is Register with an explicit global slot number — the
// deterministic identity used to order this component's timers against
// everyone else's. The ShardedKernel assigns slots from a fabric-wide
// counter so a component keeps the same slot whether its rig runs
// serially or sharded. Slots must be registered in increasing order on
// any one kernel (tick order within a cycle is slot order).
func (k *Kernel) RegisterSlot(t Ticker, slot int32) {
	if n := len(k.tickers); n > 0 && k.tickers[n-1].slot >= slot {
		panic(fmt.Sprintf("sim: slot %d registered after slot %d; slots must be increasing", slot, k.tickers[n-1].slot))
	}
	e := tickerEntry{t: t, next: alwaysDue, wake: Dormant, slot: slot}
	var w Wakeable
	if s, ok := t.(Sleeper); ok {
		e.s = s
		w, e.bound = t.(Wakeable)
	} else {
		k.opaque++
	}
	k.tickers = append(k.tickers, e)
	if slot >= k.nextSlot {
		k.nextSlot = slot + 1
	}
	if w != nil {
		w.SetWaker(Waker{k: k, i: int32(len(k.tickers) - 1)})
	}
}

// At schedules fn to run at the start of the given absolute cycle,
// before components tick. Scheduling in the past (or present) runs the
// callback on the next Step. Same-cycle events fire in a deterministic
// order: by insertion cycle, then by the inserting component's slot,
// then by insertion order within that component.
func (k *Kernel) At(cycle int64, fn func()) {
	k.timers.push(k.event(cycle, fn, nil, nil))
}

// AtCall is At for the closure-free form: it schedules call(arg) at the
// given cycle. Hot paths that would otherwise capture their argument in
// a fresh closure per event (one per packet delivery) pre-build one
// func(any) and pass the payload through arg instead.
func (k *Kernel) AtCall(cycle int64, call func(arg any), arg any) {
	k.timers.push(k.event(cycle, nil, call, arg))
}

// event stamps a timer with the current insertion context's key.
func (k *Kernel) event(cycle int64, fn func(), call func(arg any), arg any) timerEvent {
	if cycle <= k.cycle {
		cycle = k.cycle + 1
	}
	if k.curSub == nil {
		panic("sim: scheduling a local timer from a cross-shard delivery; post through the Mailbox instead")
	}
	*k.curSub++
	return timerEvent{cycle: cycle, icycle: k.cycle, slot: k.curSlot, sub: *k.curSub, idx: k.curIdx, fn: fn, call: call, arg: arg}
}

// After schedules fn to run delta cycles from now (minimum 1).
func (k *Kernel) After(delta int64, fn func()) {
	if delta < 1 {
		delta = 1
	}
	k.At(k.cycle+delta, fn)
}

// inject merges an externally built event (a cross-shard delivery) into
// the timer heap. Only the ShardedKernel calls this, at barriers. The
// event's index named a component on its source shard.
func (k *Kernel) inject(ev timerEvent) {
	ev.idx = -1
	k.timers.push(ev)
}

// Stop requests that Run return at the end of the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// Step advances the simulation by exactly one cycle: due timers fire
// first, then every due component ticks once, in registration order,
// and each bound one that ticked is asked its NextWork.
//
// A timer makes the component that scheduled it due in its cycle: its
// callback runs as that component. A timer scheduled by code outside
// any component may touch anything, so it makes every component due.
// A cross-shard delivery makes nothing due; what it delivers to wakes
// its receiver.
func (k *Kernel) Step() {
	k.cycle++
	c := k.cycle
	k.steps++
	k.blame(c)
	k.pos = -1
	for len(k.timers) > 0 && k.timers[0].cycle <= c {
		ev := k.timers.pop()
		// Timer callbacks inherit the scheduling component's identity,
		// so chains like "engine tick → At(txDone) → pipe.Send → At(
		// delivery)" stay ordered by the originating slot. A foreign
		// slot (cross-shard delivery) has no local counter; its
		// callback may not schedule local timers.
		switch {
		case ev.idx >= 0:
			e := &k.tickers[ev.idx]
			k.curSlot, k.curIdx, k.curSub = e.slot, ev.idx, &e.sub
			e.wake = c
		case ev.slot < 0:
			k.curSlot, k.curIdx, k.curSub = -1, -1, &k.extSub
			for i := range k.tickers {
				k.tickers[i].wake = c
			}
		default:
			k.curSlot, k.curIdx, k.curSub = ev.slot, -1, nil
		}
		if ev.call != nil {
			ev.call(ev.arg)
		} else {
			ev.fn()
		}
	}
	for i := range k.tickers {
		e := &k.tickers[i]
		due := e.next <= c || e.wake <= c
		if !due {
			if !k.noskip {
				k.elided++
				continue
			}
			if c >= k.checkTo {
				k.check(e, c)
			}
		}
		k.ticks++
		k.pos = int32(i)
		k.curSlot, k.curIdx, k.curSub = e.slot, int32(i), &e.sub
		e.t.Tick(c)
		if due {
			if e.wake <= c {
				e.wake = Dormant
			}
			if e.bound {
				e.next = e.s.NextWork(c)
			}
		}
	}
	k.pos = idle
	k.curSlot, k.curIdx, k.curSub = -1, -1, &k.extSub
	if k.noskip {
		k.checkSkip()
	}
}

// blame charges stepped cycle c to its cause: the first component in
// tick order whose cached value or wake asked for it, else a timer,
// else whatever else stepped it (a run boundary, an unbound or opaque
// ticker, the always-step loop).
func (k *Kernel) blame(c int64) {
	for i := range k.tickers {
		if e := &k.tickers[i]; e.bound && (e.next <= c || e.wake <= c) {
			e.woke++
			return
		}
	}
	if len(k.timers) > 0 && k.timers[0].cycle <= c {
		k.byTimer++
	} else {
		k.byOther++
	}
}

// refresh asks every bound component its NextWork: code outside Step
// (test setup, a driver between runs) may have changed anything.
func (k *Kernel) refresh() {
	for i := range k.tickers {
		if e := &k.tickers[i]; e.bound {
			e.next = e.s.NextWork(k.cycle)
		}
	}
	k.checkTo = k.cycle
}

// nextEventCycle returns the earliest cycle > now at which anything can
// happen: a bound component's cached value, an unbound one's NextWork,
// or a kernel timer. Dormant means nothing ever will.
func (k *Kernel) nextEventCycle() int64 {
	now := k.cycle
	next := Dormant
	if len(k.timers) > 0 {
		next = k.timers[0].cycle
	}
	for i := range k.tickers {
		e := &k.tickers[i]
		w := e.next
		if !e.bound {
			w = e.s.NextWork(now)
		}
		w = min(w, e.wake)
		if w < next {
			next = w
			if next <= now+1 {
				return now + 1 // someone is busy: no skip possible
			}
		}
	}
	return next
}

// check is the shadow kernel's first wake check, run on a component the
// skipping kernel would leave idle in a cycle c it steps. (Inside a span
// it skips nothing runs there, so nothing can have changed.)
func (k *Kernel) check(e *tickerEntry, c int64) {
	if w := e.s.NextWork(c - 1); w <= c {
		panic(fmt.Sprintf("sim: missed wake: slot %d (%T) has work in cycle %d (NextWork(%d) = %d) but its next cycle is %d", e.slot, e.t, c, c-1, w, min(e.next, e.wake)))
	}
}

// checkSkip is the shadow kernel's second wake check, run at the end of
// each cycle from which the skipping kernel would jump: no bound
// component may have work before its cached cycle.
func (k *Kernel) checkSkip() {
	c := k.cycle
	if c < k.checkTo || k.opaque > 0 || len(k.tickers) == 0 {
		return
	}
	next := k.nextEventCycle()
	if next <= c+1 {
		return
	}
	k.checkTo = next
	for i := range k.tickers {
		e := &k.tickers[i]
		if !e.bound {
			continue
		}
		// next is the least cached value, so a fresh value below it is
		// below this component's too.
		if w := e.s.NextWork(c); w < next {
			panic(fmt.Sprintf("sim: missed wake: slot %d (%T) has work in cycle %d but its next cycle is %d; the kernel would skip to %d", e.slot, e.t, max(w, c+1), min(e.next, e.wake), next))
		}
	}
}

// advanceTo fast-forwards the clock so the next Step lands on the
// earliest cycle with potential work, never beyond limit. With any
// opaque ticker registered it is a no-op.
func (k *Kernel) advanceTo(limit int64) {
	if k.noskip || k.opaque > 0 || len(k.tickers) == 0 {
		return
	}
	next := k.nextEventCycle()
	if next > limit {
		next = limit
	}
	if d := next - 1 - k.cycle; d > 0 {
		k.cycle += d
		k.skipped += d
		k.skips++
	}
}

// Run advances the simulation by n cycles, or until Stop is called.
// Provably idle spans are fast-forwarded; the end cycle is exact.
func (k *Kernel) Run(n int64) {
	k.stopped = false
	k.refresh()
	end := k.cycle + n
	for k.cycle < end && !k.stopped {
		k.advanceTo(end)
		k.Step()
	}
}

// observable returns the next cycle <= limit at which RunUntil must
// evaluate its predicate: the next cycle where simulation activity can
// occur, or the limit. With opaque tickers registered every cycle is
// observable.
func (k *Kernel) observable(limit int64) int64 {
	if k.opaque > 0 || len(k.tickers) == 0 {
		return k.cycle + 1
	}
	next := k.nextEventCycle()
	if next > limit {
		next = limit
	}
	return next
}

// RunUntil advances the simulation until the predicate returns true or
// the cycle budget is exhausted, honoring Stop like Run does. It
// reports whether the predicate fired.
//
// The predicate is evaluated at exactly the cycles where simulation
// activity can occur (plus the budget boundary) — in both kernel modes.
// The skipping kernel cannot evaluate it inside a skipped span, so the
// shadow kernel deliberately restricts itself to the same observation
// cycles; a differential run therefore calls the predicate at identical
// cycles, which matters when the predicate has side effects or depends
// on Now() rather than simulation state. Since no component state
// changes inside a skipped span, predicates over simulation state still
// observe every transition they could under per-cycle evaluation.
func (k *Kernel) RunUntil(pred func() bool, budget int64) bool {
	k.stopped = false
	k.refresh()
	end := k.cycle + budget
	for k.cycle < end && !k.stopped {
		if pred() {
			return true
		}
		if k.noskip {
			// Step through the gap cycle by cycle (shadow semantics) but
			// evaluate the predicate only where the skipping kernel can.
			next := k.observable(end)
			for k.cycle < next && !k.stopped {
				k.Step()
			}
			continue
		}
		k.advanceTo(end)
		k.Step()
	}
	return pred()
}

// --- Fabric: a serial kernel is the one-shard fabric ---

// IslandKernel implements Fabric: every island lives on the kernel.
func (k *Kernel) IslandKernel(island int) *Kernel { return k }

// RegisterOn implements Fabric.
func (k *Kernel) RegisterOn(island int, t Ticker) { k.Register(t) }

// CrossPost implements Fabric: on a serial fabric cross-island
// deliveries are ordinary timers.
func (k *Kernel) CrossPost(src, dst int, minLatency int64) Poster { return k }

// NSToCycles converts a nanosecond duration to cycles, rounding up.
func NSToCycles(ns int64) int64 {
	return (ns + CycleNS - 1) / CycleNS
}

// String describes the kernel state, mostly for test failure messages.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{cycle=%d tickers=%d timers=%d skipped=%d}", k.cycle, len(k.tickers), len(k.timers), k.skipped)
}
