package exp

import (
	"strconv"
	"strings"
	"testing"
)

// shapes holds every tolerance the tier-1 paper-shape assertions use, in
// one place. Each bound is the paper's claim widened to what the model
// is calibrated to reproduce (EXPERIMENTS.md, "Headline claims").
var shapes = struct {
	// Nginx at 1 server core and 64 flows (Figs 10–12, §5.2).
	nginxRateRatio [2]float64 // F4T/Linux Krps; paper 2.6–2.8×
	nginxCPUSaving float64    // 1 − F4T/Linux server cycles per response; paper 64 %

	// Fig 8a, 128 B bulk requests (§5.1): F4T saturates the link from 2
	// cores on (measured 83.1 Gbps at 2, 93.9 at 8); Linux grows with
	// cores (0.9 → 5.5 Gbps from 1 to 8).
	f4tBulkGbps2Cores float64

	// Fig 13 quick sweep (§5.3, 256 / 4 096 / 16 384 flows).
	ddrKnee float64 // DDR Mrps at 16 384 flows ≤ this × its 256-flow rate (measured 10.1/49.6 = 0.20)
	hbmFlat float64 // HBM Mrps at every point within this fraction of its 256-flow rate (measured 2.2 %)

	// Fig 16b quick, 8 cores (§5.5): the ablation ladder baseline →
	// 1fpc → 1fpc-c → f4t.
	ladderSlack float64 // a rung's bulk Mrps may sit this fraction below the rung before (f4t 324.6 vs 1fpc-c 325.0)
	rrOverCoal  float64 // f4t RR× ≥ this × 1fpc-c's RR× (measured 22.1/11.3 = 1.96; the paper's 24-core 71.3/8.6)
}{
	nginxRateRatio: [2]float64{2.2, 3.2},
	nginxCPUSaving: 0.60,

	f4tBulkGbps2Cores: 80,

	ddrKnee: 0.5,
	hbmFlat: 0.05,

	ladderSlack: 0.01,
	rrOverCoal:  1.5,
}

// checkLatencyOrder asserts the Figs 10–12 latency shape: p50 ≤ p99 on
// each stack, and the Linux median above the F4T median.
func checkLatencyOrder(t *testing.T, medLinux, p99Linux, medF4T, p99F4T float64) {
	t.Helper()
	if medLinux > p99Linux || medF4T > p99F4T {
		t.Errorf("p50 above p99: linux %.1f/%.1f, f4t %.1f/%.1f", medLinux, p99Linux, medF4T, p99F4T)
	}
	if medLinux <= medF4T {
		t.Errorf("Linux median %.1f not above F4T median %.1f", medLinux, medF4T)
	}
}

// cellFloat parses a numeric table cell, ignoring a trailing note such
// as Fig 13's "(76% est)".
func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	cell, _, _ := strings.Cut(tab.Rows[row][col], " ")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %v", tab.Title, row, col, err)
	}
	return v
}
