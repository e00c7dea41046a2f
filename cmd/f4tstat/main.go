// f4tstat runs an instrumented standard rig and dumps its telemetry: a
// point-in-time snapshot of every metric, the sampled time series or
// the per-flow statistics table, as CSV or JSON — or the whole run as a
// Perfetto trace (spans plus sampled counter tracks).
//
// Usage:
//
//	f4tstat                          # echo rig snapshot, CSV on stdout
//	f4tstat -rig bulk -format json
//	f4tstat -mode series -sample 10000
//	f4tstat -mode flows -format json
//	f4tstat -o stats.csv
//	f4tstat -mode trace -o trace.json   # open in ui.perfetto.dev or chrome://tracing
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"f4t/internal/exp"
)

const usage = "usage: f4tstat [-rig echo|bulk] [-mode snapshot|series|flows|trace] [-format csv|json] [-cycles N] [-sample N] [-o path]"

// dumpers maps -mode to its writer.
var dumpers = map[string]func(w io.Writer, r *exp.StatRig, format string) error{
	"snapshot": dumpSnapshot,
	"series":   dumpSeries,
	"flows":    dumpFlows,
	"trace":    dumpTrace,
}

// checkArgs rejects a mistyped -rig, -mode or -format before any rig is
// built and simulated.
func checkArgs(rig, mode, format string) error {
	if !slices.Contains([]string{"echo", "bulk"}, rig) {
		return fmt.Errorf("unknown rig %q (echo, bulk)", rig)
	}
	if dumpers[mode] == nil {
		return fmt.Errorf("unknown mode %q (snapshot, series, flows, trace)", mode)
	}
	if !slices.Contains([]string{"csv", "json"}, format) {
		return fmt.Errorf("unknown format %q (csv, json)", format)
	}
	return nil
}

func main() {
	rig := flag.String("rig", "echo", "workload rig: echo or bulk")
	mode := flag.String("mode", "snapshot", "what to dump: snapshot, series, flows, trace (Perfetto JSON; ignores -format)")
	format := flag.String("format", "csv", "output format: csv or json")
	cycles := flag.Int64("cycles", 400_000, "simulated cycles to run after connection setup")
	sample := flag.Int64("sample", 0, "sampling period in cycles (0 = default 25000)")
	out := flag.String("o", "", "output path (default stdout)")
	flag.Parse()

	if err := checkArgs(*rig, *mode, *format); err != nil {
		fmt.Fprintf(os.Stderr, "f4tstat: %v\n%s\n", err, usage)
		os.Exit(2)
	}

	r, err := exp.RunStatRig(*rig, *cycles, *sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f4tstat: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			fmt.Fprintf(os.Stderr, "f4tstat: %v\n", err)
			os.Exit(1)
		}
	}
	err = dumpers[*mode](w, r, *format)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "f4tstat: %v\n", err)
		os.Exit(1)
	}
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// dumpTrace writes the run's Perfetto trace and summarises it on stderr
// (stdout may be the trace).
func dumpTrace(w io.Writer, r *exp.StatRig, _ string) error {
	if err := r.Tel.Export(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "f4tstat: %d trace events (%d dropped), %d metrics, %d samples, %d app operations\n",
		r.Tel.Trace.Total(), r.Tel.Trace.Dropped(), r.Tel.Reg.Len(),
		r.Tel.Sampler.Points(), r.Requests)
	return nil
}

// dumpSnapshot emits one row per registered metric.
func dumpSnapshot(w io.Writer, r *exp.StatRig, format string) error {
	snap := r.Tel.Reg.Snapshot()
	if format == "json" {
		return writeJSON(w, snap)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "kind", "value", "p50", "p99", "max", "mean"}); err != nil {
		return err
	}
	for _, s := range snap {
		rec := []string{
			s.Name, s.Kind, strconv.FormatInt(s.Value, 10),
			strconv.FormatInt(s.P50, 10), strconv.FormatInt(s.P99, 10),
			strconv.FormatInt(s.Max, 10), strconv.FormatFloat(s.Mean, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// dumpSeries emits the sampled time series in long form: one row per
// (metric, sample point).
func dumpSeries(w io.Writer, r *exp.StatRig, format string) error {
	series := r.Tel.Sampler.Series()
	if format == "json" {
		return writeJSON(w, series)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "kind", "t_ns", "value"}); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.AtNS {
			rec := []string{
				s.Name, s.Kind,
				strconv.FormatInt(s.AtNS[i], 10), strconv.FormatInt(s.Val[i], 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// dumpFlows emits both engines' per-flow statistics.
func dumpFlows(w io.Writer, r *exp.StatRig, format string) error {
	type engFlows struct {
		Engine string      `json:"engine"`
		Flows  interface{} `json:"flows"`
	}
	if format == "json" {
		return writeJSON(w, []engFlows{
			{Engine: "eng_a", Flows: r.Tel.FlowsA.Flows()},
			{Engine: "eng_b", Flows: r.Tel.FlowsB.Flows()},
		})
	}
	cw := csv.NewWriter(w)
	header := []string{"engine", "flow_id", "state", "cwnd", "ssthresh", "srtt_ns", "rto_ns",
		"bytes_acked", "bytes_rcvd", "retransmits", "rtt_samples", "goodput_bps"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, side := range []struct {
		name string
	}{{"eng_a"}, {"eng_b"}} {
		flows := r.Tel.FlowsA.Flows()
		if side.name == "eng_b" {
			flows = r.Tel.FlowsB.Flows()
		}
		for _, f := range flows {
			rec := []string{
				side.name,
				strconv.FormatUint(uint64(f.FlowID), 10), f.State,
				strconv.FormatUint(uint64(f.CwndB), 10), strconv.FormatUint(uint64(f.Ssthresh), 10),
				strconv.FormatInt(f.SRTTNS, 10), strconv.FormatInt(f.RTONS, 10),
				strconv.FormatInt(f.BytesAcked, 10), strconv.FormatInt(f.BytesRcvd, 10),
				strconv.FormatInt(f.Retransmits, 10), strconv.FormatInt(f.RTTSamples, 10),
				strconv.FormatFloat(f.GoodputBps(), 'f', 0, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
