package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runRepeat runs the selection o.repeat times, each workload in a fresh
// process (so set-up and heap start from nothing every time), with seeds
// seed, seed+1, ... and the workload order reversed on odd repetitions. It
// prints, for every end-to-end metric of every workload, the median and
// quartiles over the repetitions and whether the spread (interquartile
// range over median) fits the metric's bound. Two invocations with the
// same arguments use the same seeds, so their sim_* medians must agree
// exactly and their host_* medians within the bounds.
func runRepeat(o *options, selected []*workloadSpec) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type childEntry struct {
		Digest   string             `json:"sim_digest"`
		Failures []string           `json:"check_failures"`
		EndToEnd map[string]float64 `json:"end_to_end"`
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per repetition
	status := 0
	for rep := 0; rep < o.repeat; rep++ {
		order := append([]*workloadSpec{}, selected...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			tmp := filepath.Join(outDir, fmt.Sprintf("repeat-%d-%s.json", os.Getpid(), w.name))
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed+uint64(rep), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-json", tmp}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Printf("repeat %d %s: run failed: %v\n", rep, w.name, err)
				status = 1
			}
			b, err := os.ReadFile(tmp)
			os.Remove(tmp)
			if err != nil {
				fmt.Printf("repeat %d %s: no result: %v\n", rep, w.name, err)
				status = 1
				continue
			}
			var entries []childEntry
			if err := json.Unmarshal(b, &entries); err != nil || len(entries) != 1 {
				fmt.Printf("repeat %d %s: bad result file: %v\n", rep, w.name, err)
				status = 1
				continue
			}
			e := entries[0]
			fmt.Printf("repeat %d %s seed %d sim_digest %s host_ns_per_sim_cycle %.4g setup_s %.4g %v\n",
				rep, w.name, o.seed+uint64(rep), e.Digest, e.EndToEnd["host_ns_per_sim_cycle"], e.EndToEnd["setup_s"], e.Failures)
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for n, v := range e.EndToEnd {
				values[w.name][n] = append(values[w.name][n], v)
			}
		}
	}

	fmt.Printf("\n%-14s %-27s %12s %12s %12s %9s %7s  %s\n", "workload", "metric", "median", "q1", "q3", "spread%", "bound%", "verdict")
	for _, w := range selected {
		for _, s := range endToEnd {
			v := values[w.name][s.Name]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			if med == 0 {
				continue // does not apply to this workload
			}
			spread := (q3 - q1) / med
			verdict := "steady (spread under a third of the bound)"
			switch {
			case spread > s.Bound:
				verdict = "TOO NOISY for its bound"
			case spread > s.Bound/3:
				verdict = "fits the bound"
			}
			fmt.Printf("%-14s %-27s %12.6g %12.6g %12.6g %9.3f %7.1f  %s\n",
				w.name, s.Name, med, q1, q3, 100*spread, 100*s.Bound, verdict)
		}
	}
	return status
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default exclusive method), which
// is what the benchmark's driver computes its spreads from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64{}, v...)
	sort.Float64s(d)
	ld := len(d)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
