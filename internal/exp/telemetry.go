package exp

import (
	"fmt"
	"io"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/flow"
	"f4t/internal/telemetry"
)

// PairTelemetry bundles the telemetry wired onto one F4TPair: the metric
// registry spanning every layer, the trace ring, the clock-driven
// sampler, and one flow table per engine (flow IDs are per-engine
// namespaces, so the two sides must not share a table).
type PairTelemetry struct {
	Reg     *telemetry.Registry
	Trace   *telemetry.Trace
	Sampler *telemetry.Sampler
	FlowsA  *telemetry.FlowTable
	FlowsB  *telemetry.FlowTable

	nextTID int32
}

// DefaultSampleCycles is the sampler period for instrumented rigs:
// 25k cycles = 100 us simulated, ~10 points per simulated millisecond.
const DefaultSampleCycles = 25_000

// InstrumentF4TPair attaches full telemetry to a standard two-node rig:
// every engine sub-unit, the PCIe channels, both link directions and the
// host libraries register their metrics; the engines, FPCs, channels and
// pipes get trace threads; a sampler snapshots all metrics every
// sampleCycles (<= 0 selects DefaultSampleCycles) and refreshes both
// flow tables from the live TCBs. Call before registering apps so app
// instrumentation can join the same registry/trace via NextTID.
func InstrumentF4TPair(p *F4TPair, sampleCycles int64, traceEvents int) *PairTelemetry {
	if sampleCycles <= 0 {
		sampleCycles = DefaultSampleCycles
	}
	t := &PairTelemetry{
		Reg:   telemetry.NewRegistry(),
		Trace: telemetry.NewTrace(traceEvents),
	}

	p.EngA.Instrument(t.Reg, "eng_a")
	p.EngB.Instrument(t.Reg, "eng_b")
	p.Link.Instrument(t.Reg, "link")
	p.MachA.Instrument(t.Reg, "mach_a")
	p.MachB.Instrument(t.Reg, "mach_b")

	tid := p.EngA.SetTracer(t.Trace, "eng_a", 1)
	tid = p.EngB.SetTracer(t.Trace, "eng_b", tid)
	t.Trace.SetThreadName(tid, "link.a_to_b")
	p.Link.AtoB.SetTracer(t.Trace, tid)
	tid++
	t.Trace.SetThreadName(tid, "link.b_to_a")
	p.Link.BtoA.SetTracer(t.Trace, tid)
	tid++
	t.nextTID = tid

	t.FlowsA = telemetry.NewFlowTable(t.Reg.NewHistogram("eng_a.flow.srtt_ns"))
	t.FlowsB = telemetry.NewFlowTable(t.Reg.NewHistogram("eng_b.flow.srtt_ns"))
	p.EngA.SetFlowTable(t.FlowsA)
	p.EngB.SetFlowTable(t.FlowsB)

	t.Sampler = telemetry.StartSampler(p.K, t.Reg, sampleCycles, 0)
	t.Sampler.AddHook(func(nowNS int64) {
		p.EngA.VisitTCBs(func(tcb *flow.TCB) { t.FlowsA.Observe(nowNS, tcb) })
		p.EngB.VisitTCBs(func(tcb *flow.TCB) { t.FlowsB.Observe(nowNS, tcb) })
	})
	return t
}

// NextTID allocates one more virtual trace thread (for apps joining the
// rig's trace) and names it.
func (t *PairTelemetry) NextTID(name string) int32 {
	tid := t.nextTID
	t.nextTID++
	t.Trace.SetThreadName(tid, name)
	return tid
}

// Export writes the rig's Perfetto trace (spans plus sampled counter
// tracks) to w.
func (t *PairTelemetry) Export(w io.Writer) error {
	return t.Trace.Export(w, t.Sampler)
}

// StatRig is an instrumented standard rig after its run: the telemetry
// bundle plus headline workload counters for sanity checks.
type StatRig struct {
	Pair     *F4TPair
	Tel      *PairTelemetry
	Requests int64 // completed app operations (round trips or sends)
}

// RunStatRig builds one of the standard telemetry rigs, runs it for
// runCycles beyond readiness, and returns the collected telemetry.
// Rigs: "echo" (the Fig 13 ping-pong shape) and "bulk" (the Fig 8a
// saturated transfer).
func RunStatRig(rig string, runCycles, sampleCycles int64) (*StatRig, error) {
	if runCycles <= 0 {
		runCycles = 400_000
	}
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), func(c *engine.Config) {
		if rig == "echo" {
			c.CarryBytes = false
		}
	})
	k := p.K
	tel := InstrumentF4TPair(p, sampleCycles, 0)

	switch rig {
	case "echo":
		srv := apps.NewEchoServer(p.MachB.Threads(), 6001, 128)
		k.Register(srv)
		k.Run(2_000)
		cli := apps.NewEchoClient(k, p.MachA.Threads(), 0, 6001, 128, 4)
		cli.Instrument(tel.Reg, "app.echo")
		cli.SetTracer(tel.Trace, tel.NextTID("app.echo"))
		k.Register(cli)
		if !k.RunUntil(cli.Ready, 500_000) {
			return nil, fmt.Errorf("echo rig: connections not established")
		}
		k.Run(runCycles)
		return &StatRig{Pair: p, Tel: tel, Requests: cli.Requests.Total()}, nil
	case "bulk":
		sink := apps.NewSink(p.MachB.Threads(), 6002)
		sink.Instrument(tel.Reg, "app.sink")
		k.Register(sink)
		k.Run(2_000)
		b := apps.NewBulkSender(p.MachA.Threads(), 0, 6002, 1460)
		b.Instrument(tel.Reg, "app.bulk")
		k.Register(b)
		if !k.RunUntil(b.Ready, 500_000) {
			return nil, fmt.Errorf("bulk rig: connections not established")
		}
		k.Run(runCycles)
		return &StatRig{Pair: p, Tel: tel, Requests: b.Requests.Total()}, nil
	default:
		return nil, fmt.Errorf("unknown rig %q (echo, bulk)", rig)
	}
}
