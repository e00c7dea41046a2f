package sched

import "f4t/internal/telemetry"

// Instrument registers the scheduler's counters and queue-depth gauges
// under prefix (e.g. "eng_a.sched"). Entries reference the existing stat
// fields directly. Safe on a nil registry.
func (s *Scheduler) Instrument(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".routed", &s.Routed)
	reg.Counter(prefix+".coalesced", &s.Coalesced)
	reg.Counter(prefix+".backpressure", &s.Backpressure)
	reg.Counter(prefix+".migrations", &s.Migrations)
	reg.Counter(prefix+".swap_ins", &s.SwapIns)
	reg.Counter(prefix+".dropped_events", &s.DroppedEvents)
	reg.Gauge(prefix+".pending_events", func() int64 { return int64(s.PendingEvents()) })
	reg.Gauge(prefix+".migrations_inflight", func() int64 { return int64(s.inFlight) })
}
