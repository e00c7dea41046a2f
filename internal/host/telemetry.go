package host

import (
	"fmt"

	"f4t/internal/telemetry"
)

// Instrument registers each thread's F4T library accounting under prefix
// (e.g. "mach_a"). The engine itself is instrumented separately via
// Engine.Instrument. Safe on a nil registry.
func (m *F4TMachine) Instrument(reg *telemetry.Registry, prefix string) {
	for i, lib := range m.libs {
		lib.Instrument(reg, fmt.Sprintf("%s.t%d.lib", prefix, i))
	}
}
