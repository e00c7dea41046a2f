package exp

import "testing"

func TestNginxPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	linux, f4t := nginxPoints(t)
	ratio := f4t.Krps / linux.Krps
	if lo, hi := shapes.nginxRateRatio[0], shapes.nginxRateRatio[1]; ratio < lo || ratio > hi {
		t.Errorf("F4T/Linux request rate %.2f×, want within [%.1f, %.1f]", ratio, lo, hi)
	}
	checkLatencyOrder(t, float64(linux.MedianNS), float64(linux.P99NS), float64(f4t.MedianNS), float64(f4t.P99NS))
}

// TestFig11CPUSaving holds Fig 11's claim: with the server core busy on
// both stacks, F4T spends no TCP cycles and at least the tabled share
// fewer cycles per response.
func TestFig11CPUSaving(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	linux, f4t := nginxPoints(t)
	perResp := func(r NginxResult) float64 { return (1 - r.Breakdown["idle"]) / r.Krps }
	if saving := 1 - perResp(f4t)/perResp(linux); saving < shapes.nginxCPUSaving {
		t.Errorf("F4T saves %.1f%% of the server cycles per response, want ≥ %.0f%%", saving*100, shapes.nginxCPUSaving*100)
	}
	if f4t.Breakdown["tcp"] != 0 {
		t.Errorf("F4T server spends %.1f%% of its cycles in TCP, want none", f4t.Breakdown["tcp"]*100)
	}
}

// nginxPoints measures the 1-core, 64-flow point on both stacks.
func nginxPoints(t *testing.T) (linux, f4t NginxResult) {
	linux, f4t = NginxPoint("linux", 1, 64), NginxPoint("f4t", 1, 64)
	for _, r := range []struct {
		name string
		res  NginxResult
	}{{"linux", linux}, {"f4t", f4t}} {
		t.Logf("%-6s 1 core 64 flows: %.1f Krps med=%.1fus p99=%.1fus breakdown=%v",
			r.name, r.res.Krps, float64(r.res.MedianNS)/1e3, float64(r.res.P99NS)/1e3, r.res.Breakdown)
	}
	return linux, f4t
}
