// f4tbench regenerates the tables and figures of the F4T paper's
// evaluation (§5, §6) from simulation.
//
// Usage:
//
//	f4tbench -exp fig8            # one experiment
//	f4tbench -exp all -quick      # everything, reduced sweeps
//
// Experiments: table1 table2 fig1 fig2 fig7b fig8 fig9 fig10 fig11
// fig12 fig13 fig14 fig15 fig16a fig16b alg, the abl-* ablations, the
// topology scenarios incast fanio mixed wan fairness, the stdlib-facade demo
// httpload (-pcap <file> additionally writes its link capture), and the
// churn flow-scale stress (2^20 concurrent connections)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"f4t/internal/exp"
)

var runners = map[string]func(quick bool) *exp.Table{
	"table1": func(bool) *exp.Table { return exp.Table1() },
	"table2": func(bool) *exp.Table { return exp.Table2() },
	"fig1":   exp.Fig1,
	"fig2":   exp.Fig2,
	"fig7b":  func(bool) *exp.Table { return exp.Fig7b() },
	"fig8":   exp.Fig8,
	"fig9":   exp.Fig9,
	"fig10":  exp.Fig10,
	"fig11":  func(bool) *exp.Table { return exp.Fig11() },
	"fig12":  func(bool) *exp.Table { return exp.Fig12() },
	"fig13":  exp.Fig13,
	"fig14":  exp.Fig14,
	"fig15":  exp.Fig15,
	"fig16a": exp.Fig16a,
	"fig16b": exp.Fig16b,
	"alg":    exp.AlgorithmTable,

	// Ablations of the design choices DESIGN.md calls out (not paper
	// figures; they isolate each mechanism's contribution).
	"abl-fpcs":     exp.AblationFPCScaling,
	"abl-coalesce": exp.AblationCoalescing,
	"abl-cache":    exp.AblationTCBCache,

	// Multi-node topology scenarios (not paper figures; they exercise
	// the router/AQM subsystem under datacenter traffic patterns).
	"incast":   exp.ScenarioIncast,
	"fanio":    exp.ScenarioFanio,
	"mixed":    exp.ScenarioMixed,
	"wan":      exp.ScenarioWAN,
	"fairness": exp.ScenarioFairness,

	// Stdlib-compatibility demo: an unmodified net/http server/client
	// pair over the netapi socket facade (DESIGN.md §14).
	"httpload": exp.HTTPLoad,

	// Flow-scale stress: ramp to 2^20 concurrent connections (2^17 with
	// -quick) and sustain the plateau under heavy-tailed
	// departure/replacement churn (DESIGN.md §15).
	"churn": exp.Churn,
}

// order fixes the presentation sequence for -exp all.
var order = []string{
	"table1", "table2", "fig1", "fig2", "fig7b", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16a",
	"fig16b", "alg", "abl-fpcs", "abl-coalesce", "abl-cache",
	"incast", "fanio", "mixed", "wan", "fairness", "httpload", "churn",
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run (or 'all', or 'list')")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	workers := flag.Int("workers", 1, "distribute a sweep's independent rigs over N goroutines (fig9, fig13, fig16a); results are identical for any N")
	aqm := flag.String("aqm", "", "restrict the topology scenarios to one queue discipline ("+strings.Join(exp.ScenarioAQMNames(), ", ")+"); default sweeps all")
	pcapPath := flag.String("pcap", "", "write the httpload link capture to this pcapng file")
	flag.Parse()

	exp.SetHTTPLoadPCAP(*pcapPath)

	// Fail fast on a bad discipline name instead of burning a sweep.
	if err := exp.SetScenarioAQM(*aqm); err != nil {
		fmt.Fprintf(os.Stderr, "f4tbench: %v\n", err)
		os.Exit(2)
	}

	if w := *workers; w > 1 {
		runners["fig9"] = func(q bool) *exp.Table { return exp.Fig9Workers(q, w) }
		runners["fig13"] = func(q bool) *exp.Table { return exp.Fig13Workers(q, w) }
		runners["fig16a"] = func(q bool) *exp.Table { return exp.Fig16aWorkers(q, w) }
	}

	if *expFlag == "list" {
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	names := []string{*expFlag}
	if *expFlag == "all" {
		names = order
	}
	code := 0
	for _, name := range names {
		code = max(code, run(os.Stdout, name, *quick))
	}
	os.Exit(code)
}

// run prints one experiment's table and returns the exit code it earns:
// 2 for a name that is not an experiment, 1 for a table that carries a
// failure (a missed churn plateau, an httpload error), 0 otherwise.
func run(w io.Writer, name string, quick bool) int {
	r, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "f4tbench: unknown experiment %q (try -exp list)\n", name)
		return 2
	}
	start := time.Now()
	tab := r(quick)
	fmt.Fprint(w, tab.String())
	fmt.Fprintf(w, "(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	if tab.Err != nil {
		return 1
	}
	return 0
}
