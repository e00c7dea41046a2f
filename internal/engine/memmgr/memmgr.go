// Package memmgr models the memory manager of §4.3.1: the DRAM-resident
// TCB store that gives F4T its 64 K-flow connectivity, the direct-mapped
// TCB cache in front of it, the event handling performed directly on
// DRAM TCBs, and the check logic that decides which flows are worth
// swapping into an FPC.
package memmgr

import (
	"f4t/internal/flow"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// TCBBytes is the modelled size of one TCB in device memory. The store
// is charged one read and one write of this size per uncached access.
const TCBBytes = 128

// MemoryKind selects the device memory technology (§4.7).
type MemoryKind uint8

const (
	// DDR is the U280's DDR4 channel pair: 38 GB/s peak (§4.7).
	DDR MemoryKind = iota
	// HBM is the U280's high-bandwidth memory: 460 GB/s peak (§4.7).
	HBM
)

// Config parameterizes the manager.
type Config struct {
	Kind      MemoryKind
	CacheSize int // direct-mapped TCB cache entries (0 disables)
}

// DefaultConfig returns the model for the given memory kind: a 512-entry
// TCB cache in front of the store.
func DefaultConfig(kind MemoryKind) Config {
	return Config{Kind: kind, CacheSize: 512}
}

// kinds holds each memory technology's figures (§4.7). randomPct
// derates peak bandwidth for the short random accesses TCB traffic
// consists of (row activation overhead on DDR; pseudo-channel conflicts
// on HBM): at 128 B granularity DDR4 delivers roughly a third of peak,
// while HBM's many pseudo-channels keep most of it.
var kinds = [...]struct {
	peakGBps  int64 // peak bandwidth
	randomPct int64 // derate for 128 B random access
	latencyNS int64 // access latency
}{
	DDR: {peakGBps: 38, randomPct: 35, latencyNS: 100},
	HBM: {peakGBps: 460, randomPct: 60, latencyNS: 120},
}

// Hooks wire the manager's outputs.
type Hooks struct {
	// OnSwapInRequest fires when the check logic finds a DRAM-resident
	// flow that can send packets (§4.3.1).
	OnSwapInRequest func(id flow.ID)
}

type pendingEvent struct {
	ev      flow.Event
	readyAt int64
}

// Manager is the memory manager.
type Manager struct {
	k     *sim.Kernel
	hooks Hooks

	tcbs     flow.Table[*flow.TCB] // the DRAM TCB store (nil = not resident)
	resident int                   // non-nil entries of tcbs
	cache    []flow.ID             // direct-mapped: cache[i] = resident flow (NoFlow = empty)
	rate     *sim.ByteRate
	lat      int64 // access latency in cycles

	input    *sim.Queue[flow.Event]
	inFlight *sim.Queue[pendingEvent]
	queued   flow.Table[int32] // events per flow across input+inFlight

	// Stats.
	Handled   sim.Counter
	CacheHits sim.Counter
	CacheMiss sim.Counter
	SwapReqs  sim.Counter
}

// New builds a manager.
func New(k *sim.Kernel, cfg Config, hooks Hooks) *Manager {
	mk := kinds[cfg.Kind]
	// Effective bytes/cycle = peak GB/s × derate; GBpsRate is ×4 B/cycle.
	num := mk.peakGBps * 4 * mk.randomPct
	m := &Manager{
		k:        k,
		hooks:    hooks,
		rate:     sim.NewByteRate(num, 100),
		lat:      sim.NSToCycles(mk.latencyNS),
		input:    sim.NewQueue[flow.Event](0),
		inFlight: sim.NewQueue[pendingEvent](0),
	}
	if cfg.CacheSize > 0 {
		m.cache = make([]flow.ID, cfg.CacheSize)
		for i := range m.cache {
			m.cache[i] = flow.NoFlow
		}
	}
	return m
}

// FlowCount returns DRAM-resident flows.
func (m *Manager) FlowCount() int { return m.resident }

// Has reports residency.
func (m *Manager) Has(id flow.ID) bool { return m.tcbs.Get(id) != nil }

// Insert stores an evicted TCB (charging a DRAM write).
func (m *Manager) Insert(t *flow.TCB) {
	row := m.tcbs.At(t.FlowID)
	if *row == nil {
		m.resident++
	}
	*row = t
	t.EvictFlag = false
	m.chargeAccess()
}

// Extract removes a TCB for swap-in, returning it and the cycle at which
// the DRAM read completes (the scheduler forwards it to the FPC then).
// Events already queued inside the manager for this flow are handled
// into the TCB first so they migrate with it — the "handled events are
// later processed in FPC" guarantee (§4.3.1).
func (m *Manager) Extract(id flow.ID) (*flow.TCB, int64, bool) {
	t := m.tcbs.Get(id)
	if t == nil {
		return nil, 0, false
	}
	m.absorbQueued(t)
	m.Drop(id)
	return t, m.chargeAccess(), true
}

// absorbQueued folds every queued/in-flight event of the flow into its
// TCB's event-input row and removes them from the queues. The per-flow
// pending count makes the common case (no queued events) free; otherwise
// each queue is compacted in place — the other flows' events slide down
// over the absorbed ones in FIFO order — so a swap-in allocates nothing.
func (m *Manager) absorbQueued(t *flow.TCB) {
	if m.queued.Get(t.FlowID) == 0 {
		return
	}
	m.queued.Clear(t.FlowID)
	kept := 0
	for i, n := 0, m.input.Len(); i < n; i++ {
		ev := m.input.AtPtr(i)
		if ev.Flow == t.FlowID {
			t.In.Accumulate(ev)
			m.Handled.Inc()
			continue
		}
		if kept != i {
			*m.input.AtPtr(kept) = *ev
		}
		kept++
	}
	m.input.Truncate(kept)
	kept = 0
	for i, n := 0, m.inFlight.Len(); i < n; i++ {
		pe := m.inFlight.AtPtr(i)
		if pe.ev.Flow == t.FlowID {
			t.In.Accumulate(&pe.ev)
			m.Handled.Inc()
			continue
		}
		if kept != i {
			*m.inFlight.AtPtr(kept) = *pe
		}
		kept++
	}
	m.inFlight.Truncate(kept)
}

// Drop discards a DRAM-resident flow (connection freed while swapped
// out): its store entry and its cache line.
func (m *Manager) Drop(id flow.ID) {
	if m.tcbs.Get(id) != nil {
		m.tcbs.Clear(id)
		m.resident--
	}
	m.uncache(id)
}

// EnqueueEvent routes one event to a DRAM-resident flow.
func (m *Manager) EnqueueEvent(ev flow.Event) bool {
	if !m.input.Push(ev) {
		return false
	}
	*m.queued.At(ev.Flow)++
	return true
}

// unqueue decrements the per-flow pending count.
func (m *Manager) unqueue(id flow.ID) {
	if n := m.queued.At(id); *n > 0 {
		*n--
	}
}

// Backlog returns events queued for handling.
func (m *Manager) Backlog() int { return m.input.Len() + m.inFlight.Len() }

// chargeAccess books one TCB transfer against DRAM bandwidth and
// latency.
func (m *Manager) chargeAccess() int64 {
	return m.rate.Reserve(m.k.Now(), TCBBytes) + m.lat
}

func (m *Manager) cacheSlot(id flow.ID) int {
	if len(m.cache) == 0 {
		return -1
	}
	return int(uint32(id)) % len(m.cache)
}

func (m *Manager) uncache(id flow.ID) {
	if s := m.cacheSlot(id); s >= 0 && m.cache[s] == id {
		m.cache[s] = flow.NoFlow
	}
}

// NextWork implements sim.Sleeper for the engine's aggregate idleness
// report: a queued event starts an access immediately; in-flight
// accesses retire strictly in order, so the head's readyAt is the next
// cycle anything can retire even when later entries (cache hits behind
// a miss) are nominally due earlier.
func (m *Manager) NextWork(now int64) int64 {
	if m.input.Len() > 0 {
		return now + 1
	}
	if m.inFlight.Len() == 0 {
		return sim.Dormant
	}
	return max(now+1, m.inFlight.AtPtr(0).readyAt)
}

// Tick advances the manager: start handling queued events (cache lookup,
// DRAM RMW) and retire those whose memory access completed — handling
// events "directly to TCBs in the memory" (§4.3.1).
func (m *Manager) Tick(cycle int64) {
	// Event-driven dispatch, single-sourced from NextWork (which
	// inlines here): nothing queued and no access due to retire means
	// both stages below are no-ops.
	if m.NextWork(cycle-1) > cycle {
		return
	}
	// Start at most one new access per cycle.
	if ev, ok := m.input.Peek(); ok {
		if m.tcbs.Get(ev.Flow) == nil {
			m.input.Pop() // flow left DRAM while the event was queued
			m.unqueue(ev.Flow)
		} else {
			m.input.Pop()
			readyAt := cycle
			if s := m.cacheSlot(ev.Flow); s >= 0 && m.cache[s] == ev.Flow {
				m.CacheHits.Inc()
				readyAt = cycle + 1 // BRAM cache hit: single-cycle
			} else {
				m.CacheMiss.Inc()
				// Read-modify-write on the DRAM row; fill the cache slot.
				done := m.rate.Reserve(cycle, 2*TCBBytes) + m.lat
				if s >= 0 {
					m.cache[s] = ev.Flow
				}
				readyAt = done
			}
			m.inFlight.Push(pendingEvent{ev: ev, readyAt: readyAt})
		}
	}

	// Retire completed accesses in order.
	for {
		pe, ok := m.inFlight.Peek()
		if !ok || pe.readyAt > cycle {
			return
		}
		m.inFlight.Pop()
		m.unqueue(pe.ev.Flow)
		t := m.tcbs.Get(pe.ev.Flow)
		if t == nil {
			continue
		}
		t.In.Accumulate(&pe.ev)
		t.LastActive = cycle
		m.Handled.Inc()
		// Check logic: swap in only flows that can send packets (§4.3.1).
		if tcpproc.Actionable(t) && m.hooks.OnSwapInRequest != nil {
			m.SwapReqs.Inc()
			m.hooks.OnSwapInRequest(pe.ev.Flow)
		}
	}
}
