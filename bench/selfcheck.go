package main

import (
	"fmt"
	"math"

	"f4t/internal/engine"
	"f4t/internal/exp"
	"f4t/internal/sim"
)

// selfCheck runs on every full-scale seed-0 run, after the measurement: the
// benchmark's seeded rig builders must reproduce the exp builders bit for
// bit at seed 0, on the windows the exp runners use, and bulk_sat must
// still read the EXPERIMENTS.md headline (83.1 Gbps, 81.2 Mrps at 2 cores).
func selfCheck(workload string) []string {
	var bad []string
	rate := func(delta, cycles int64) float64 {
		return float64(delta) * float64(sim.FrequencyHz) / float64(cycles)
	}
	e := &env{seed: 0}
	switch workload {
	case "bulk_sat":
		want := exp.TransferPoint("f4t", false, 128, 2, func(c *engine.Config) { c.CarryBytes = true })
		k := sim.New()
		r := buildBulkSat(e, k)
		ops0, bytes0 := r.ops(), r.payload()
		k.Run(exp.DefaultMeasure)
		got := exp.TransferResult{
			GoodputGbps: exp.Gbps(rate(r.payload()-bytes0, exp.DefaultMeasure)),
			Mrps:        exp.Mrps(rate(r.ops()-ops0, exp.DefaultMeasure)),
		}
		fmt.Printf("info bulk_sat selfcheck: exp.TransferPoint %.4f Gbps %.4f Mrps, bench builder %.4f Gbps %.4f Mrps\n",
			want.GoodputGbps, want.Mrps, got.GoodputGbps, got.Mrps)
		if got != want {
			bad = append(bad, fmt.Sprintf("seed-0 bulk_sat rig %+v differs from exp.TransferPoint %+v", got, want))
		}
		if math.Round(got.GoodputGbps*10) != 831 || math.Round(got.Mrps*10) != 812 {
			bad = append(bad, fmt.Sprintf("seed-0 bulk_sat reads %.1f Gbps / %.1f Mrps, EXPERIMENTS.md has 83.1 / 81.2", got.GoodputGbps, got.Mrps))
		}
	case "http_f4t", "http_linux":
		kind := workload[len("http_"):]
		const measure = exp.DefaultMeasure * 2
		want := exp.NginxPointWindow(kind, 1, 64, measure)
		k := sim.New()
		r := buildHTTP(kind)(e, k)
		ops0 := r.ops()
		k.Run(measure)
		krps := rate(r.ops()-ops0, measure) / 1e3
		fmt.Printf("info %s selfcheck: exp.NginxPointWindow %.4f Krps p50 %d p99 %d, bench builder %.4f Krps p50 %d p99 %d\n",
			workload, want.Krps, want.MedianNS, want.P99NS, krps, r.lat.Median(), r.lat.P99())
		if krps != want.Krps || r.lat.Median() != want.MedianNS || r.lat.P99() != want.P99NS {
			bad = append(bad, fmt.Sprintf("seed-0 %s rig differs from exp.NginxPointWindow on the same window", workload))
		}
	}
	return bad
}
