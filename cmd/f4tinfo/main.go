// f4tinfo prints the design-summary artifacts that need no simulation:
// the resource model (Figure 7b), the qualitative comparison tables
// (Tables 1 and 2), and the registries of runnable names — congestion
// control algorithms, conformance rigs, topology scenarios, and queue
// disciplines.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"f4t/internal/cc"
	"f4t/internal/conformance"
	"f4t/internal/exp"
	"f4t/internal/netsim"
)

var shows = []string{"fig7b", "table1", "table2", "names", "all"}

// names prints every registry a command-line flag validates against, so
// "what can I pass to -alg / -rig / -exp / -aqm" has one answer.
func names(w io.Writer) {
	rigs := make([]string, len(conformance.AllRigs))
	for i, r := range conformance.AllRigs {
		rigs[i] = r.String()
	}
	fmt.Fprintf(w, "cc algorithms (f4ttrace -alg):      %s\n", strings.Join(cc.Names(), ", "))
	fmt.Fprintf(w, "conformance rigs (f4tconform -rig): %s\n", strings.Join(rigs, ", "))
	fmt.Fprintf(w, "topology scenarios (f4tbench -exp): %s\n", strings.Join(exp.ScenarioNames(), ", "))
	fmt.Fprintf(w, "queue disciplines (f4tbench -aqm):  %s\n", strings.Join(exp.ScenarioAQMNames(), ", "))
	fmt.Fprintf(w, "router AQM kinds (netsim):          %s\n", strings.Join(netsim.AQMNames(), ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run prints what -show names and returns the exit code: 2 for a bad
// flag or -show value, 1 when the output cannot be written, 0 otherwise.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("f4tinfo", flag.ContinueOnError)
	which := fs.String("show", "all", "what to print: "+strings.Join(shows, ", "))
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	w := bufio.NewWriter(out)
	switch *which {
	case "fig7b":
		fmt.Fprint(w, exp.Fig7b().String())
	case "table1":
		fmt.Fprint(w, exp.Table1().String())
	case "table2":
		fmt.Fprint(w, exp.Table2().String())
	case "names":
		names(w)
	case "all":
		fmt.Fprint(w, exp.Table1().String())
		fmt.Fprintln(w)
		fmt.Fprint(w, exp.Table2().String())
		fmt.Fprintln(w)
		fmt.Fprint(w, exp.Fig7b().String())
		fmt.Fprintln(w)
		names(w)
	default:
		fmt.Fprintf(os.Stderr, "f4tinfo: unknown -show %q (want %s)\n", *which, strings.Join(shows, ", "))
		return 2
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "f4tinfo: %v\n", err)
		return 1
	}
	return 0
}
