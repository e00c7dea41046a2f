package exp

import "testing"

func TestFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	tab := Fig12()
	t.Log("\n" + tab.String())
	// Rows: linux, f4t; columns: stack, median us, p99 us.
	checkLatencyOrder(t, cellFloat(t, tab, 0, 1), cellFloat(t, tab, 0, 2), cellFloat(t, tab, 1, 1), cellFloat(t, tab, 1, 2))
}
