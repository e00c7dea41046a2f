package engine

import (
	"fmt"

	"f4t/internal/flow"
	"f4t/internal/telemetry"
)

// Instrument registers every engine-level counter plus the scheduler,
// memory manager, FPC and host-channel metrics under prefix (e.g.
// "eng_a"). All entries reference the stat fields the components already
// update, so registry values are identical to the ad-hoc fields by
// construction. Safe on a nil registry (everything no-ops).
func (e *Engine) Instrument(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rx_pkts", &e.RxPkts)
	reg.Counter(prefix+".tx_pkts", &e.TxPkts)
	reg.Counter(prefix+".rx_dropped", &e.RxDropped)
	reg.Counter(prefix+".rx_no_flow", &e.RxNoFlow)
	reg.Counter(prefix+".cmds_processed", &e.CmdsProcessed)
	reg.Counter(prefix+".completions_sent", &e.CompletionsSent)
	reg.Counter(prefix+".flows_accepted", &e.FlowsAccepted)
	reg.Counter(prefix+".flows_rejected", &e.FlowsRejected)
	reg.Counter(prefix+".retrans_segs", &e.RetransSegs)
	reg.Counter(prefix+".oow_rst_drops", &e.OowRstDrops)
	reg.Gauge(prefix+".flows", func() int64 { return int64(e.live) })
	reg.Gauge(prefix+".rx_queue", func() int64 { return int64(e.rxQueue.Len()) })

	e.sch.Instrument(reg, prefix+".sched")
	e.mem.Instrument(reg, prefix+".mem")
	for i, f := range e.fpcs {
		f.Instrument(reg, fmt.Sprintf("%s.fpc%d", prefix, i))
	}
	e.PCIe.Instrument(reg, prefix+".pcie")
	for i, ch := range e.Channels {
		ch.Instrument(reg, fmt.Sprintf("%s.ch%d", prefix, i))
	}
}

// InstrumentMem registers the engine's per-flow memory probes on a
// footprint accountant: the TCB arena, the parser's flow table, the
// parser-flow arena (embedded reassemblers included) and out-of-order
// reassembly buffers. Probes are evaluated only at snapshot time.
func (e *Engine) InstrumentMem(fp *telemetry.Footprint, prefix string) {
	fp.Add(prefix+".tcb_arena", func() (int64, int64) {
		return int64(e.live), e.tcbs.memBytes()
	})
	fp.Add(prefix+".flow_table", func() (int64, int64) {
		m := e.parser.Mem()
		return m.TableEntries, m.TableBytes
	})
	fp.Add(prefix+".parser_flows", func() (int64, int64) {
		m := e.parser.Mem()
		return m.FlowCount, m.FlowBytes
	})
	fp.Add(prefix+".reasm", func() (int64, int64) {
		m := e.parser.Mem()
		return m.FlowCount, m.ReasmBytes
	})
}

// SetTracer attaches a trace ring to the engine and its sub-units.
// Virtual thread IDs are allocated from baseTID: the engine itself, then
// one per FPC, then one per host channel; thread names are registered so
// the trace viewer shows "eng_a.fpc3" instead of a number. Returns the
// first unused TID so callers can stack engines in one trace.
func (e *Engine) SetTracer(trc *telemetry.Trace, name string, baseTID int32) int32 {
	e.trc = trc
	e.tid = baseTID
	trc.SetThreadName(baseTID, name)
	tid := baseTID + 1
	for i, f := range e.fpcs {
		trc.SetThreadName(tid, fmt.Sprintf("%s.fpc%d", name, i))
		f.SetTracer(trc, tid)
		tid++
	}
	for i, ch := range e.Channels {
		trc.SetThreadName(tid, fmt.Sprintf("%s.ch%d", name, i))
		ch.SetTracer(trc, tid)
		tid++
	}
	return tid
}

// SetFlowTable attaches a per-flow statistics table; the engine reports
// retransmissions into it. Combine with VisitTCBs from a sampler hook to
// refresh cwnd/RTT/byte-pointer snapshots periodically.
func (e *Engine) SetFlowTable(ft *telemetry.FlowTable) { e.ft = ft }

// VisitTCBs invokes fn for every live flow's TCB, in ascending flow ID.
// Telemetry collectors use this to observe per-flow state; fn must not
// mutate the TCB.
func (e *Engine) VisitTCBs(fn func(*flow.TCB)) {
	for id := 0; id < e.flows.Len(); id++ {
		if fm := e.flows.Get(flow.ID(id)); fm != nil {
			fn(fm.tcb)
		}
	}
}
