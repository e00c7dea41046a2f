package sim

import (
	"fmt"
	"strings"
)

// Gauges is where Kernel.Instrument registers its counters.
// telemetry.Registry implements it; the kernel names the one method it
// needs because package telemetry imports this one.
type Gauges interface {
	Gauge(name string, fn func() int64)
}

// Instrument registers the kernel's self-telemetry under prefix:
//
//	stepped_cycles, skipped_cycles, skips  where the clock went
//	ticks_run, ticks_elided                component ticks per stepped cycle
//	steps_by.<slot>_<type>                 stepped cycles a component's cached
//	                                       NextWork or a wake asked for
//	steps_by.timer                         stepped cycles only a timer asked for
//	steps_by.other                         the rest: run boundaries, unbound
//	                                       or opaque tickers, the shadow loop
//
// ticks_run + ticks_elided is stepped_cycles × components, and the
// steps_by counters sum to stepped_cycles. A step is charged to the
// first component in tick order that asked for it. Call it once the rig
// is registered: later components get no steps_by counter.
func (k *Kernel) Instrument(reg Gauges, prefix string) {
	reg.Gauge(prefix+".stepped_cycles", func() int64 { return k.steps })
	reg.Gauge(prefix+".skipped_cycles", func() int64 { return k.skipped })
	reg.Gauge(prefix+".skips", func() int64 { return k.skips })
	reg.Gauge(prefix+".ticks_run", func() int64 { return k.ticks })
	reg.Gauge(prefix+".ticks_elided", func() int64 { return k.elided })
	for i := range k.tickers {
		e := &k.tickers[i]
		if !e.bound {
			continue
		}
		name := strings.TrimPrefix(fmt.Sprintf("%T", e.t), "*")
		reg.Gauge(fmt.Sprintf("%s.steps_by.%d_%s", prefix, e.slot, name), func() int64 { return k.tickers[i].woke })
	}
	reg.Gauge(prefix+".steps_by.timer", func() int64 { return k.byTimer })
	reg.Gauge(prefix+".steps_by.other", func() int64 { return k.byOther })
}
