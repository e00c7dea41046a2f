package exp

import (
	"fmt"
	"math"
	"testing"

	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/telemetry"
)

// The topology rigs' determinism contract: every scenario point is
// bit-identical on every fabric of simtest.FabricMatrix. The signatures
// below fold every float through math.Float64bits, so "close" is never
// good enough — only the exact same bits pass.

const (
	topoDiffWarmup  = 50_000
	topoDiffMeasure = 150_000
)

func incastSig(f sim.Fabric, senders int, aqm netsim.AQMConfig, seed uint64) string {
	r := IncastPointOn(f, senders, aqm, "dctcp", seed, nil, topoDiffWarmup, topoDiffMeasure)
	return fmt.Sprintf("goodput=%x port=%+v", math.Float64bits(r.GoodputGbps), r.Port)
}

// TestIncastShardDifferential is the fabric battery for the incast rig
// across seeds.
func TestIncastShardDifferential(t *testing.T) {
	seeds := []uint64{0, 1}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		simtest.FabricMatrix(t, func(f sim.Fabric) string {
			return fmt.Sprintf("seed %d: %s", seed, incastSig(f, 4, netsim.RED(0, true), seed))
		})
	}
}

// TestScenarioRigsShardIdentical covers the remaining topology rigs at
// one seed each: fan-out/fan-in, mixed traffic, and the WAN chain must
// all produce bit-identical results on every fabric.
func TestScenarioRigsShardIdentical(t *testing.T) {
	cases := []struct {
		name string
		run  func(f sim.Fabric) string
	}{
		{"fanio", func(f sim.Fabric) string {
			r := FanioPointOn(f, 3, netsim.CoDel(0, true), "dctcp", 8_192, nil, topoDiffWarmup, topoDiffMeasure)
			return fmt.Sprintf("rps=%x p50=%d p99=%d port=%+v",
				math.Float64bits(r.RoundsPerSec), r.P50NS, r.P99NS, r.Port)
		}},
		{"mixed", func(f sim.Fabric) string {
			r := MixedPointOn(f, netsim.ECNThreshold(netsim.DefaultCoDelTargetNS, 0), "dctcp", nil, topoDiffWarmup, topoDiffMeasure)
			return fmt.Sprintf("bulk=%x p50=%d p99=%d port=%+v",
				math.Float64bits(r.BulkGbps), r.EchoP50, r.EchoP99, r.Port)
		}},
		{"wan", func(f sim.Fabric) string {
			r := WANPointOn(f, DefaultWANSenders(), netsim.DropTail(0), "cubic", nil, topoDiffWarmup, topoDiffMeasure)
			sig := fmt.Sprintf("jain=%x port=%+v", math.Float64bits(r.Jain), r.Port)
			for _, g := range r.SenderGbps {
				sig += fmt.Sprintf(" %x", math.Float64bits(g))
			}
			return sig
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { simtest.FabricMatrix(t, c.run) })
	}
}

// TestIncastAQMOnset is the acceptance check for the discipline sweep:
// DropTail lets the standing queue grow to the byte limit and tail-drops
// there, while RED and CoDel act measurably earlier — asserted through
// the bottleneck port's own counters, not throughput side effects.
func TestIncastAQMOnset(t *testing.T) {
	const senders = 4
	run := func(aqm netsim.AQMConfig) PortStats {
		return IncastPointOn(sim.New(), senders, aqm, "dctcp", 0, nil, topoDiffWarmup, topoDiffMeasure).Port
	}
	dt := run(netsim.DropTail(0))
	red := run(netsim.RED(0, true))
	codel := run(netsim.CoDel(0, true))

	if dt.TailDrops == 0 {
		t.Errorf("droptail: no tail drops (stats %+v)", dt)
	}
	if limit := int64(netsim.DefaultQueueLimitBytes); dt.PeakQBytes < limit*3/4 {
		t.Errorf("droptail peak queue %d never approached the %d limit", dt.PeakQBytes, limit)
	}
	if dt.Marks != 0 {
		t.Errorf("droptail marked %d packets; it must never mark", dt.Marks)
	}
	for _, c := range []struct {
		name string
		s    PortStats
	}{{"red", red}, {"codel", codel}} {
		if c.s.Marks == 0 {
			t.Errorf("%s: no CE marks under ECN-capable incast (stats %+v)", c.name, c.s)
		}
		// The initial slow-start burst can fill any queue before the
		// first CE feedback returns, so peak depth is not the
		// discriminator — onset time is: RED and CoDel must signal
		// strictly before DropTail's first loss.
		if c.s.FirstCongNS < 0 || c.s.FirstCongNS >= dt.FirstCongNS {
			t.Errorf("%s onset %d ns not earlier than droptail's %d ns",
				c.name, c.s.FirstCongNS, dt.FirstCongNS)
		}
	}
}

// TestTopologyTelemetryBinding checks that the per-port gauges a rig
// registers report the same values as the counters the tests assert on.
func TestTopologyTelemetryBinding(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := IncastPointOn(sim.New(), 2, netsim.RED(0, true), "dctcp", 0, reg, topoDiffWarmup, topoDiffMeasure)
	checks := []struct {
		gauge string
		want  int64
	}{
		{"topo.sw0.node0.marked_pkts", r.Port.Marks},
		{"topo.sw0.node0.tail_drops", r.Port.TailDrops},
		{"topo.sw0.node0.aqm_drops", r.Port.AQMDrops},
		{"topo.sw0.node0.peak_q_bytes", r.Port.PeakQBytes},
	}
	for _, c := range checks {
		got, ok := reg.Value(c.gauge)
		if !ok {
			t.Errorf("gauge %q not registered", c.gauge)
			continue
		}
		if got != c.want {
			t.Errorf("gauge %q = %d, counter says %d", c.gauge, got, c.want)
		}
	}
}
