package exp

import "testing"

func TestFig13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end sweep")
	}
	tab := Fig13(true)
	t.Log("\n" + tab.String())
	// Rows 256, 4 096, 16 384 flows; columns flows, linux, f4t-ddr, f4t-hbm.
	last := len(tab.Rows) - 1
	ddr0, ddrN := cellFloat(t, tab, 0, 2), cellFloat(t, tab, last, 2)
	if ddrN > shapes.ddrKnee*ddr0 {
		t.Errorf("DDR knee missing: %.2f Mrps at %s flows against %.2f at %s", ddrN, tab.Rows[last][0], ddr0, tab.Rows[0][0])
	}
	hbm0 := cellFloat(t, tab, 0, 3)
	for r := range tab.Rows {
		if hbm := cellFloat(t, tab, r, 3); hbm < (1-shapes.hbmFlat)*hbm0 || hbm > (1+shapes.hbmFlat)*hbm0 {
			t.Errorf("HBM not flat: %.2f Mrps at %s flows against %.2f at %s", hbm, tab.Rows[r][0], hbm0, tab.Rows[0][0])
		}
	}
}

// TestEcho64K exercises the full 65,536-flow connectivity point (§5.3).
// It is minutes of wall time, so it only runs in the exhaustive pass.
func TestEcho64K(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-flow run is minutes long")
	}
	mrps, frac := EchoPoint("f4t-hbm", 65536)
	t.Logf("f4t-hbm @64K flows: %.2f Mrps, %.0f%% established", mrps, frac*100)
	// Establishing all 65,536 connections takes seconds of simulated
	// time (minutes of wall time per simulated second at this scale), so
	// the bounded ramp reaches tens of thousands of live flows; the
	// architecture claim being checked is that the engine keeps its
	// request rate with far more flows than the 1,024 FPC slots.
	if frac < 0.25 {
		t.Errorf("only %.0f%% of 64K flows established", frac*100)
	}
	if mrps < 20 {
		t.Errorf("echo rate collapsed at scale: %.2f Mrps", mrps)
	}
}
