package sim

import (
	"fmt"
	"sync"
)

// ShardedKernel runs one simulation across several shards, each a
// private serial Kernel driven on its own goroutine, using conservative
// lookahead synchronization: all shards advance in lock-step windows no
// longer than the minimum cross-shard latency, and cross-shard events
// (packet deliveries) are exchanged only at the barriers between
// windows, through mailboxes ordered by the same deterministic timer
// key the serial kernel uses.
//
// # Determinism argument
//
// The sharded run is bit-for-bit identical to a serial run of the same
// rig because every source of ordering is goroutine-independent:
//
//  1. Components on different shards share no mutable state; the only
//     cross-shard channel is a Mailbox obtained from CrossPost.
//  2. Within a shard, components tick in global-slot order — the same
//     relative order the serial kernel uses, since RegisterOn assigns
//     slots from one fabric-wide counter in registration order.
//  3. Every timer (local or cross-shard) carries the structured key
//     (fireCycle, insertCycle, slot, sub) computed from its inserting
//     component's own deterministic execution. Merging mailbox events
//     into the destination shard's heap therefore reproduces exactly
//     the interleaving a single global heap would have produced.
//  4. A mailbox message posted during a window fires strictly after
//     the window's end barrier (enforced; see Mailbox), so no shard
//     can ever need an event another shard has not yet exchanged —
//     the classic conservative-lookahead soundness condition.
//
// Quiescence skipping composes: each shard is a Kernel with its own
// NextWork cache, re-asked as every window's Run begins, so it ticks
// only its due components and an idle shard crosses a whole window in
// one jump. A cross-shard delivery makes nothing due by itself; the
// receiver it reaches wakes on its own shard.
type ShardedKernel struct {
	shards    []*Kernel
	boxes     []*Mailbox
	hooks     []func(now int64) // run at every barrier, in order
	lookahead int64
	cycle     int64
	nextSlot  int32
	stopped   bool
}

// NewSharded returns a sharded kernel with n shards (n >= 1) positioned
// at cycle 0. Until a cross-shard mailbox is created the lookahead is
// unbounded and Run executes each shard's whole span in one window.
func NewSharded(n int) *ShardedKernel {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	sk := &ShardedKernel{lookahead: Dormant}
	for i := 0; i < n; i++ {
		sk.shards = append(sk.shards, New())
	}
	return sk
}

// Shards returns the number of shards.
func (sk *ShardedKernel) Shards() int { return len(sk.shards) }

// Shard returns the i-th shard's kernel (for registering components and
// reading per-shard stats). Island numbers map onto shards modulo the
// shard count, so rigs with more islands than shards still run.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i%len(sk.shards)] }

// SetSkipping toggles quiescence skipping on every shard.
func (sk *ShardedKernel) SetSkipping(on bool) {
	for _, k := range sk.shards {
		k.SetSkipping(on)
	}
}

// SkippedCycles sums the cycles fast-forwarded across all shards.
func (sk *ShardedKernel) SkippedCycles() int64 {
	var n int64
	for _, k := range sk.shards {
		n += k.SkippedCycles()
	}
	return n
}

// Now returns the barrier cycle: every shard's clock equals it between
// windows (the only time the caller can observe the simulation).
func (sk *ShardedKernel) Now() int64 { return sk.cycle }

// NowNS returns the barrier time in nanoseconds.
func (sk *ShardedKernel) NowNS() int64 { return sk.cycle * CycleNS }

// Lookahead returns the synchronization window: the minimum declared
// cross-shard latency, or Dormant when no cross-shard link exists.
func (sk *ShardedKernel) Lookahead() int64 { return sk.lookahead }

// AtBarrier registers fn to run at every barrier (window end), on the
// coordinating goroutine, after mailboxes have been exchanged. Barrier
// hooks are the sharded analogue of coarse polling timers: they may
// read any shard's state, because all shards are parked.
func (sk *ShardedKernel) AtBarrier(fn func(now int64)) {
	sk.hooks = append(sk.hooks, fn)
}

// Stop requests that Run return at the next barrier.
func (sk *ShardedKernel) Stop() { sk.stopped = true }

// --- Fabric implementation ---

// IslandKernel implements Fabric.
func (sk *ShardedKernel) IslandKernel(island int) *Kernel { return sk.Shard(island) }

// RegisterOn implements Fabric: the component is registered on the
// island's shard under a fabric-global slot number, so its timers order
// identically to a serial run with the same registration sequence.
func (sk *ShardedKernel) RegisterOn(island int, t Ticker) {
	slot := sk.nextSlot
	sk.nextSlot++
	sk.Shard(island).RegisterSlot(t, slot)
}

// CrossPost implements Fabric. Same-shard islands short-circuit to the
// shard's own timer heap; distinct shards get a Mailbox, and the
// fabric's lookahead shrinks to the smallest declared latency.
func (sk *ShardedKernel) CrossPost(src, dst int, minLatency int64) Poster {
	if minLatency < 1 {
		panic("sim: CrossPost needs a positive minimum latency")
	}
	sks, skd := sk.Shard(src), sk.Shard(dst)
	if sks == skd {
		return sks
	}
	if minLatency < sk.lookahead {
		sk.lookahead = minLatency
	}
	m := &Mailbox{src: sks, dst: skd}
	sk.boxes = append(sk.boxes, m)
	return m
}

// Run advances all shards by n cycles in lookahead-bounded windows.
func (sk *ShardedKernel) Run(n int64) {
	sk.stopped = false
	end := sk.cycle + n
	for sk.cycle < end && !sk.stopped {
		sk.window(end)
	}
}

// RunUntil advances the simulation until the predicate returns true or
// the budget is exhausted. The predicate runs on the coordinating
// goroutine and is evaluated at barriers only — every lookahead window
// — since that is the only time cross-shard state is coherent. Drivers
// that must observe identical cycles on serial and sharded fabrics
// should poll on a fixed cycle grid instead (exp.RunUntilCoarse).
func (sk *ShardedKernel) RunUntil(pred func() bool, budget int64) bool {
	sk.stopped = false
	end := sk.cycle + budget
	for sk.cycle < end && !sk.stopped {
		if pred() {
			return true
		}
		sk.window(end)
	}
	return pred()
}

// window runs one synchronization window: set every mailbox's horizon,
// release all shards for at most lookahead cycles, then exchange the
// accumulated cross-shard events at the barrier.
func (sk *ShardedKernel) window(end int64) {
	w := sk.lookahead
	if w > end-sk.cycle {
		w = end - sk.cycle
	}
	target := sk.cycle + w
	for _, m := range sk.boxes {
		m.horizon = target
	}
	live := 0
	for _, k := range sk.shards {
		if len(k.tickers) == 0 && len(k.timers) == 0 {
			// Provably empty shard: nothing can happen; advance its
			// clock directly rather than burning a goroutine.
			k.cycle = target
			continue
		}
		live++
	}
	if live <= 1 {
		// Zero or one busy shard: run inline, no synchronization needed.
		for _, k := range sk.shards {
			if k.cycle < target {
				k.Run(target - k.cycle)
			}
		}
	} else {
		var wg sync.WaitGroup
		for _, k := range sk.shards {
			if k.cycle >= target {
				continue
			}
			wg.Add(1)
			go func(k *Kernel) {
				defer wg.Done()
				k.Run(target - k.cycle)
			}(k)
		}
		wg.Wait()
	}
	sk.cycle = target
	for _, m := range sk.boxes {
		m.flush()
	}
	for _, h := range sk.hooks {
		h(sk.cycle)
	}
}

// String describes the sharded kernel, mostly for test failures.
func (sk *ShardedKernel) String() string {
	return fmt.Sprintf("sim.ShardedKernel{cycle=%d shards=%d lookahead=%d boxes=%d}", sk.cycle, len(sk.shards), sk.lookahead, len(sk.boxes))
}

// Mailbox carries timer events from one shard to another. Events are
// appended by the source shard's goroutine during a window (At) and
// merged into the destination shard's heap by the coordinator at the
// barrier (flush) — the WaitGroup in window orders the two, so there is
// no concurrent access. Every event keeps the structured key its
// inserting component computed, which is what makes the merged firing
// order identical to a serial run.
type Mailbox struct {
	src, dst *Kernel
	horizon  int64 // current window end; posted events must fire beyond it
	out      []timerEvent
}

// At schedules fn on the destination shard at an absolute source-clock
// cycle. The cycle must lie beyond the current window's end barrier —
// guaranteed when the posting path models a physical latency of at
// least the fabric's lookahead (a netsim link's propagation delay).
// Violations panic: they would mean the lookahead was derived wrong and
// determinism silently lost.
func (m *Mailbox) At(cycle int64, fn func()) {
	if cycle <= m.horizon {
		panic(fmt.Sprintf("sim: cross-shard event for cycle %d within the current window (barrier %d): lookahead violation", cycle, m.horizon))
	}
	m.out = append(m.out, m.src.event(cycle, fn, nil, nil))
}

// AtCall is the closure-free form of At; see Kernel.AtCall. The event
// still crosses at the barrier with the full structured key.
func (m *Mailbox) AtCall(cycle int64, call func(arg any), arg any) {
	if cycle <= m.horizon {
		panic(fmt.Sprintf("sim: cross-shard event for cycle %d within the current window (barrier %d): lookahead violation", cycle, m.horizon))
	}
	m.out = append(m.out, m.src.event(cycle, nil, call, arg))
}

// flush merges the window's events into the destination heap. Order of
// insertion is irrelevant: the heap orders by the total structured key.
func (m *Mailbox) flush() {
	for _, ev := range m.out {
		m.dst.inject(ev)
	}
	m.out = m.out[:0]
}
