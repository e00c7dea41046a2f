package exp

import (
	"strconv"
	"testing"
)

// shapes holds every tolerance the tier-1 paper-shape assertions use, in
// one place. Each bound is the paper's claim widened to what the model
// is calibrated to reproduce (EXPERIMENTS.md, "Headline claims").
var shapes = struct {
	// Nginx at 1 server core and 64 flows (Figs 10–12, §5.2).
	nginxRateRatio [2]float64 // F4T/Linux Krps; paper 2.6–2.8×
	nginxCPUSaving float64    // 1 − F4T/Linux server cycles per response; paper 64 %
}{
	nginxRateRatio: [2]float64{2.2, 3.2},
	nginxCPUSaving: 0.60,
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

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %v", tab.Title, row, col, err)
	}
	return v
}
