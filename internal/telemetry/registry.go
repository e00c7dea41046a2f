// Package telemetry is the observability layer of the simulator: a
// registry of named counters, gauges and log-bucketed histograms spanning
// every layer of the stack (engine, host interface, network, hosts and
// applications), a periodic time-series sampler driven off the simulation
// clock, a bounded ring of structured trace events exportable as
// Chrome/Perfetto trace JSON, and a per-flow statistics table.
//
// The whole package is built around a nil fast path: every method on a
// nil *Registry, *Histogram, *Trace, *Sampler or *FlowTable is a no-op,
// so instrumented components hold nil pointers by default and pay only a
// predicted branch when telemetry is disabled. Enabling telemetry never
// changes simulation behaviour — collectors only read component state and
// record copies, so an instrumented run is bit-identical to a bare one.
package telemetry

import (
	"fmt"
	"sort"

	"f4t/internal/sim"
)

// Kind discriminates metric flavours in snapshots and exports.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota // monotonic event count (sim.Counter)
	KindGauge               // instantaneous value read through a closure
	KindHist                // log-bucketed distribution
)

// String names the kind for CSV/JSON export.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric. Exactly one of counter/gauge/hist is
// set, matching kind.
type entry struct {
	name    string
	kind    Kind
	counter *sim.Counter
	gauge   func() int64
	hist    *Histogram
}

// value reads the metric's current scalar (histograms report count).
func (e *entry) value() int64 {
	switch e.kind {
	case KindCounter:
		return e.counter.Total()
	case KindGauge:
		return e.gauge()
	case KindHist:
		return e.hist.Count()
	}
	return 0
}

// Registry is a directory of named metrics. Components register their
// existing stat fields by reference — the registry never duplicates a
// counter, it points at the same storage the component already updates —
// so registry snapshots are bit-identical to the ad-hoc fields by
// construction, and registration costs nothing on the simulation path.
type Registry struct {
	entries []entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// add installs one entry, panicking on duplicate names (registration is
// static wiring; a duplicate is a bug, not a runtime condition).
func (r *Registry) add(e entry) {
	if _, dup := r.byName[e.name]; dup {
		panic("telemetry: duplicate metric " + e.name)
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers an existing sim.Counter under name. No-op on a nil
// registry or nil counter.
func (r *Registry) Counter(name string, c *sim.Counter) {
	if r == nil || c == nil {
		return
	}
	r.add(entry{name: name, kind: KindCounter, counter: c})
}

// Gauge registers a closure read at snapshot/sample time — the bridge for
// plain int64 stat fields and computed values (queue depths, occupancy).
// No-op on a nil registry.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.add(entry{name: name, kind: KindGauge, gauge: fn})
}

// NewHistogram creates and registers a log-bucketed histogram. On a nil
// registry it returns nil, whose Observe is a no-op — callers keep the
// returned pointer unconditionally.
func (r *Registry) NewHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{name: name}
	r.add(entry{name: name, kind: KindHist, hist: h})
	return h
}

// Len returns the number of registered metrics (0 for nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// Value reads one metric by name; ok is false when absent (or nil
// registry).
func (r *Registry) Value(name string) (v int64, ok bool) {
	if r == nil {
		return 0, false
	}
	i, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	return r.entries[i].value(), true
}

// Sample is one metric's value in a snapshot. Histogram metrics carry
// their distribution summary alongside the count.
type Sample struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value"`

	// Histogram summary (zero for counters/gauges).
	P50  int64   `json:"p50,omitempty"`
	P99  int64   `json:"p99,omitempty"`
	Max  int64   `json:"max,omitempty"`
	Mean float64 `json:"mean,omitempty"`
}

// Snapshot reads every metric once and returns the samples sorted by
// name (deterministic output for diffs and tests). Nil registries return
// nil. Snapshot is cheap: one read per metric, no locking (the simulator
// is single-threaded).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		s := Sample{Name: e.name, Kind: e.kind.String(), Value: e.value()}
		if e.kind == KindHist {
			s.P50 = e.hist.Quantile(0.50)
			s.P99 = e.hist.Quantile(0.99)
			s.Max = e.hist.Max()
			s.Mean = e.hist.Mean()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// each visits entries in registration order (sampler internals).
func (r *Registry) each(fn func(name string, kind Kind, v int64)) {
	if r == nil {
		return
	}
	for i := range r.entries {
		e := &r.entries[i]
		fn(e.name, e.kind, e.value())
	}
}

// String summarizes the registry for debugging.
func (r *Registry) String() string {
	return fmt.Sprintf("telemetry.Registry{metrics=%d}", r.Len())
}
