package cpu

import "f4t/internal/sim"

// Core models one CPU core in simulated time: callers attempt operations
// with known cycle costs; the core serializes them and accounts each to
// a category. Time is the engine kernel's (4 ns cycles); CPU cycles
// convert through the 2.3 GHz clock.
type Core struct {
	k          *sim.Kernel
	busyUntil  int64                // engine-kernel cycle when the core frees up
	accounting [numCategories]int64 // CPU cycles per category
	started    int64
}

// NewCore returns an idle core.
func NewCore(k *sim.Kernel) *Core {
	return &Core{k: k, started: k.Now()}
}

// Free reports whether the core can start new work now.
func (c *Core) Free() bool { return c.k.Now() >= c.busyUntil }

// BusyUntil returns the cycle the current work finishes.
func (c *Core) BusyUntil() int64 { return c.busyUntil }

// NextFree returns the earliest cycle > now at which the core can start
// new work — a component's contribution to sim.Sleeper.NextWork when it
// has work queued behind this core.
func (c *Core) NextFree(now int64) int64 {
	if c.busyUntil > now {
		return c.busyUntil
	}
	return now + 1
}

// Run executes an operation of the given CPU-cycle cost if the core is
// free, charging it to the category. It reports whether it ran.
func (c *Core) Run(cat Category, cpuCycles int64) bool {
	if !c.Free() {
		return false
	}
	c.accounting[cat] += cpuCycles
	dur := sim.NSToCycles(CyclesToNS(cpuCycles))
	if dur < 1 {
		dur = 1
	}
	c.busyUntil = c.k.Now() + dur
	return true
}

// RunQueued executes the operation as soon as the core frees up,
// regardless of current state (work that must not be dropped). It
// returns the completion cycle.
func (c *Core) RunQueued(cat Category, cpuCycles int64) int64 {
	start := c.k.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.accounting[cat] += cpuCycles
	dur := sim.NSToCycles(CyclesToNS(cpuCycles))
	if dur < 1 {
		dur = 1
	}
	c.busyUntil = start + dur
	return c.busyUntil
}

// Spent returns the CPU cycles charged to a category.
func (c *Core) Spent(cat Category) int64 { return c.accounting[cat] }

// Breakdown returns the utilization fractions per category over the
// core's lifetime, with the remainder reported as idle.
func (c *Core) Breakdown() map[string]float64 {
	elapsed := c.k.Now() - c.started
	if elapsed <= 0 {
		return nil
	}
	// Total CPU cycles available over the elapsed sim time.
	avail := float64(elapsed) * sim.CycleNS * float64(CoreHz) / 1e9
	out := make(map[string]float64, int(numCategories))
	var used float64
	for cat := CatApp; cat < CatIdle; cat++ {
		f := float64(c.accounting[cat]) / avail
		out[cat.Name()] = f
		used += f
	}
	idle := 1 - used
	if idle < 0 {
		idle = 0
	}
	out[CatIdle.Name()] = idle
	return out
}

// ResetAccounting zeroes the per-category counters (post-warmup).
func (c *Core) ResetAccounting() {
	for i := range c.accounting {
		c.accounting[i] = 0
	}
	c.started = c.k.Now()
}

// Pool is a set of cores with helpers for "any free core" scheduling.
type Pool struct {
	Cores []*Core
}

// NewPool allocates n cores.
func NewPool(k *sim.Kernel, n int) *Pool {
	p := &Pool{Cores: make([]*Core, n)}
	for i := range p.Cores {
		p.Cores[i] = NewCore(k)
	}
	return p
}

// SpentTotal sums a category across the pool.
func (p *Pool) SpentTotal(cat Category) int64 {
	var s int64
	for _, c := range p.Cores {
		s += c.Spent(cat)
	}
	return s
}

// ResetAccounting resets every core.
func (p *Pool) ResetAccounting() {
	for _, c := range p.Cores {
		c.ResetAccounting()
	}
}
