// f4ttrace emits congestion-window traces (Figure 14) as CSV: the F4T
// engine under cycle-level simulation and the independent reference
// simulator, side by side.
//
// Usage:
//
//	f4ttrace -alg cubic -drop 2000 -ms 32 > cwnd.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"f4t/internal/cc"
	"f4t/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run writes the traces as CSV and returns the exit code: 2 for a bad
// flag or algorithm name, 1 when the output cannot be written, 0
// otherwise.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("f4ttrace", flag.ContinueOnError)
	alg := fs.String("alg", "newreno",
		"congestion control algorithm ("+strings.Join(cc.Names(), ", ")+")")
	drop := fs.Int64("drop", 2000, "drop every Nth data packet")
	ms := fs.Int64("ms", 32, "trace duration in simulated milliseconds")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Fail fast on unknown algorithms instead of burning a multi-second
	// simulation that would panic deep inside engine construction.
	if _, err := cc.New(*alg); err != nil {
		fmt.Fprintf(os.Stderr, "f4ttrace: %v\n", err)
		return 2
	}

	cycles := *ms * 250_000 // 250 cycles per microsecond at 250 MHz
	f4tTrace := exp.F4TCwndTrace(*alg, *drop, cycles, 25_000)

	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "impl,time_us,cwnd_bytes")
	for i := range f4tTrace.AtNS {
		fmt.Fprintf(w, "f4t,%.1f,%d\n", float64(f4tTrace.AtNS[i])/1e3, f4tTrace.Cwnd[i])
	}

	// The independent reference simulator models most of the registry
	// (newreno, cubic, vegas, dctcp, bbr); for anything it lacks the F4T
	// trace stands alone.
	refTrace, err := exp.RefCwndTrace(*alg, *drop, *ms*1_000_000, 100_000)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f4ttrace: note: %v; emitting f4t trace alone\n", err)
	} else {
		for i := range refTrace.AtNS {
			fmt.Fprintf(w, "reference,%.1f,%d\n", float64(refTrace.AtNS[i])/1e3, refTrace.Cwnd[i])
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "f4ttrace: %v\n", err)
		return 1
	}
	return 0
}
