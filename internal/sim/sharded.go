package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardedKernel runs one simulation with one shard per island, each a
// private serial Kernel driven on its own goroutine, using conservative
// lookahead synchronization: all shards advance in lock-step windows no
// longer than the minimum cross-island latency, and cross-island events
// (packet deliveries) are exchanged only at the barriers between
// windows, through mailboxes ordered by the same deterministic timer
// key the serial kernel uses.
//
// The run is bit-for-bit identical to a serial run of the same rig
// (DESIGN.md §11): components on different islands share no state but
// a Mailbox; RegisterOn assigns slots from one fabric-wide counter, so
// each shard ticks in serial order; every timer carries the key
// (fireCycle, insertCycle, slot, sub), so merging mailboxes at the
// barrier reproduces one global heap's order; and a mailbox refuses any
// event inside the current window. Each shard keeps its own NextWork
// cache, so an idle shard crosses a window in one jump.
type ShardedKernel struct {
	shards    []*Kernel // shards[i] drives island i
	boxes     []*Mailbox
	ext       int64 // insertion counter for code outside any component
	lookahead int64
	cycle     int64
	nextSlot  int32
	stopped   atomic.Bool
}

// NewSharded returns a sharded kernel positioned at cycle 0. Shards are
// made as islands are named. Until a cross-island mailbox is created the
// lookahead is unbounded and Run executes each shard's whole span in one
// window.
func NewSharded() *ShardedKernel { return &ShardedKernel{lookahead: Dormant} }

// shard returns island i's kernel, creating it (and any lower-numbered
// island's) at the barrier cycle on first use.
func (sk *ShardedKernel) shard(i int) *Kernel {
	for len(sk.shards) <= i {
		k := New()
		k.cycle = sk.cycle
		k.curSub = &sk.ext
		sk.shards = append(sk.shards, k)
	}
	return sk.shards[i]
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

// Stop requests that Run return at the next barrier. A component on any
// shard may call it mid-window; the other shards finish the window.
func (sk *ShardedKernel) Stop() { sk.stopped.Store(true) }

// --- Fabric implementation ---

// IslandKernel implements Fabric.
func (sk *ShardedKernel) IslandKernel(island int) *Kernel { return sk.shard(island) }

// RegisterOn implements Fabric: the component is registered on the
// island's shard under a fabric-global slot number, so its timers order
// identically to a serial run with the same registration sequence.
func (sk *ShardedKernel) RegisterOn(island int, t Ticker) {
	slot := sk.nextSlot
	sk.nextSlot++
	sk.shard(island).RegisterSlot(t, slot)
}

// CrossPost implements Fabric. An island posting to itself uses its
// shard's own timer heap; distinct islands get a Mailbox, and the
// fabric's lookahead shrinks to the smallest declared latency.
func (sk *ShardedKernel) CrossPost(src, dst int, minLatency int64) Poster {
	if minLatency < 1 {
		panic("sim: CrossPost needs a positive minimum latency")
	}
	sks, skd := sk.shard(src), sk.shard(dst)
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
	sk.stopped.Store(false)
	end := sk.cycle + n
	for sk.cycle < end && !sk.stopped.Load() {
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
	sk.stopped.Store(false)
	end := sk.cycle + budget
	for sk.cycle < end && !sk.stopped.Load() {
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
	// Between windows, code outside any component stamps its timers
	// from one counter on every shard, as on one serial kernel. Inside a
	// window each shard counts its own from that value, and the barrier
	// resumes above all of them, so a post made there sorts after the
	// window's own from the same cycle, as it does serially.
	for _, k := range sk.shards {
		k.extSub = sk.ext
		k.curSub = &k.extSub
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
	for _, k := range sk.shards {
		sk.ext = max(sk.ext, k.extSub)
		k.curSub = &sk.ext
	}
	for _, m := range sk.boxes {
		m.flush()
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
