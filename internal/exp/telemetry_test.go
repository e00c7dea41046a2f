package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
)

// TestRegistryMatchesAdHocCounters is the acceptance check for the
// reference-based registry design: after a real workload, every registry
// value must be bit-identical to the ad-hoc stat field it wraps, because
// both are the same memory.
func TestRegistryMatchesAdHocCounters(t *testing.T) {
	r, err := RunStatRig("echo", 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, reg := r.Pair, r.Tel.Reg

	checks := []struct {
		name    string
		want    int64
		mayZero bool // legitimately zero on a clean (lossless) run
	}{
		{"eng_a.rx_pkts", p.EngA.RxPkts.Total(), false},
		{"eng_a.tx_pkts", p.EngA.TxPkts.Total(), false},
		{"eng_a.cmds_processed", p.EngA.CmdsProcessed.Total(), false},
		{"eng_a.completions_sent", p.EngA.CompletionsSent.Total(), false},
		{"eng_a.retrans_segs", p.EngA.RetransSegs.Total(), true},
		{"eng_b.rx_pkts", p.EngB.RxPkts.Total(), false},
		{"eng_b.tx_pkts", p.EngB.TxPkts.Total(), false},
		{"eng_b.flows_accepted", p.EngB.FlowsAccepted.Total(), false},
		{"link.a_to_b.sent_pkts", p.Link.AtoB.SentPkts, false},
		{"link.a_to_b.sent_bytes", p.Link.AtoB.SentBytes, false},
		{"link.b_to_a.sent_pkts", p.Link.BtoA.SentPkts, false},
		{"eng_a.pcie.tlps_to_device", p.EngA.PCIe.TLPsToDevice, false},
		{"eng_a.pcie.wire_bytes_to_device", p.EngA.PCIe.WireBytesToDevice, false},
	}
	for _, c := range checks {
		got, ok := reg.Value(c.name)
		if !ok {
			t.Errorf("metric %q not registered", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s: registry %d != ad-hoc %d", c.name, got, c.want)
		}
		if c.want == 0 && !c.mayZero {
			t.Errorf("%s: counter never moved — dead instrumentation or dead rig", c.name)
		}
	}
}

// bareEcho runs the exact RunStatRig("echo") shape with no telemetry
// attached and returns a signature of the simulation-visible counters.
func bareEcho(runCycles int64) string {
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), func(c *engine.Config) {
		c.CarryBytes = false
	})
	k := p.K
	srv := apps.NewEchoServer(p.MachB.Threads(), 6001, 128)
	k.Register(srv)
	k.Run(2_000)
	cli := apps.NewEchoClient(k, p.MachA.Threads(), 0, 6001, 128, 4)
	k.Register(cli)
	if !k.RunUntil(cli.Ready, 500_000) {
		return "not ready"
	}
	k.Run(runCycles)
	return pairSig(p, cli.Requests.Total())
}

func pairSig(p *F4TPair, requests int64) string {
	return fmt.Sprintf("cycle=%d reqs=%d a.rx=%d a.tx=%d b.rx=%d b.tx=%d ab.pkts=%d ab.bytes=%d ba.pkts=%d retransA=%d",
		p.K.Now(), requests,
		p.EngA.RxPkts.Total(), p.EngA.TxPkts.Total(),
		p.EngB.RxPkts.Total(), p.EngB.TxPkts.Total(),
		p.Link.AtoB.SentPkts, p.Link.AtoB.SentBytes, p.Link.BtoA.SentPkts,
		p.EngA.RetransSegs.Total())
}

// TestTelemetryDoesNotPerturbSimulation runs the same echo rig bare and
// fully instrumented: every simulation-visible counter must match
// exactly. Observation must not change the experiment.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	const cycles = 200_000
	bare := bareEcho(cycles)
	r, err := RunStatRig("echo", cycles, 0)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := pairSig(r.Pair, r.Requests)
	if bare != instrumented {
		t.Fatalf("telemetry perturbed the simulation:\nbare:         %s\ninstrumented: %s", bare, instrumented)
	}
}

// TestTraceExportRoundTrip is the end-to-end acceptance check: the
// Perfetto export of a traced echo run must parse as JSON and contain at
// least one event from every instrumented layer.
func TestTraceExportRoundTrip(t *testing.T) {
	r, err := RunStatRig("echo", 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Tel.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 {
		t.Fatal("traced rig completed no requests")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not round-trip as JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	perCat := map[string]int{}
	counters, meta := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X", "i":
			perCat[e.Cat]++
			if e.TS < 0 || (e.Ph == "X" && e.Dur < 0) {
				t.Fatalf("negative timestamp in event %+v", e)
			}
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	for _, cat := range []string{"engine", "hostif", "net", "app"} {
		if perCat[cat] == 0 {
			t.Errorf("no trace events from layer %q (got %v)", cat, perCat)
		}
	}
	if counters == 0 {
		t.Error("no sampled counter events in export")
	}
	if meta == 0 {
		t.Error("no thread-name metadata events in export")
	}
}

// TestFlowTablesPopulated checks the per-flow view after a run: the echo
// rig opens 4 client flows, and each side's table must carry live
// cwnd/RTT/byte counters for its own flow-ID namespace.
func TestFlowTablesPopulated(t *testing.T) {
	r, err := RunStatRig("echo", 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for side, ft := range map[string]interface {
		Len() int
	}{"A": r.Tel.FlowsA, "B": r.Tel.FlowsB} {
		if ft.Len() < 4 {
			t.Errorf("side %s: %d flows tracked, want >= 4", side, ft.Len())
		}
	}
	for _, f := range r.Tel.FlowsA.Flows() {
		if f.State != "ESTABLISHED" {
			t.Errorf("flow %d state %s, want ESTABLISHED", f.FlowID, f.State)
		}
		if f.BytesAcked == 0 || f.SRTTNS == 0 || f.CwndB == 0 {
			t.Errorf("flow %d has dead stats: %+v", f.FlowID, f)
		}
	}
}
