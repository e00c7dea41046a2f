package exp

import "testing"

func TestFig16aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	tab := Fig16a(true)
	t.Log("\n" + tab.String())
}

func TestFig16bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	tab := Fig16b(true)
	t.Log("\n" + tab.String())
	// Rows baseline, 1fpc, 1fpc-c, f4t; columns design, bulk Mrps,
	// bulk ×, RR Mrps, RR ×.
	for r := 1; r < len(tab.Rows); r++ {
		if prev, cur := cellFloat(t, tab, r-1, 1), cellFloat(t, tab, r, 1); cur < (1-shapes.ladderSlack)*prev {
			t.Errorf("bulk ladder breaks at %s: %.1f Mrps after %s's %.1f", tab.Rows[r][0], cur, tab.Rows[r-1][0], prev)
		}
	}
	if coal, f4t := cellFloat(t, tab, 2, 4), cellFloat(t, tab, 3, 4); f4t < shapes.rrOverCoal*coal {
		t.Errorf("f4t RR× %.1f not %.1f× 1fpc-c's %.1f", f4t, shapes.rrOverCoal, coal)
	}
}
