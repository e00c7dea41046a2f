package exp

import (
	"testing"
	"time"
)

func TestSmokeTransferPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run")
	}
	type point struct {
		stack string
		rr    bool
		size  int
		cores int
	}
	got := map[point]float64{} // Gbps
	for _, c := range []point{
		{"f4t", false, 128, 1},
		{"f4t", false, 128, 2},
		{"f4t", false, 128, 8},
		{"linux", false, 128, 1},
		{"linux", false, 128, 8},
		{"f4t", true, 128, 1},
		{"linux", true, 128, 8},
	} {
		t0 := time.Now()
		r := TransferPoint(c.stack, c.rr, c.size, c.cores, nil)
		got[c] = r.GoodputGbps
		t.Logf("%-6s rr=%-5v size=%d cores=%d  -> %6.1f Gbps  %6.1f Mrps   (%.1fs wall)",
			c.stack, c.rr, c.size, c.cores, r.GoodputGbps, r.Mrps, time.Since(t0).Seconds())
	}
	checkF4TBulk(t, got[point{"f4t", false, 128, 2}], got[point{"f4t", false, 128, 8}])
	if l1, l8 := got[point{"linux", false, 128, 1}], got[point{"linux", false, 128, 8}]; l8 <= l1 {
		t.Errorf("Linux bulk does not grow with cores: %.1f Gbps at 1, %.1f at 8", l1, l8)
	}
}

// checkF4TBulk asserts the Fig 8a F4T shape on 128 B bulk goodput at 2
// and 8 sender cores: the link saturates by 2 cores, and more cores
// never lose it.
func checkF4TBulk(t *testing.T, gbps2, gbps8 float64) {
	t.Helper()
	if gbps2 < shapes.f4tBulkGbps2Cores {
		t.Errorf("F4T bulk at 2 cores %.1f Gbps, want ≥ %.0f", gbps2, shapes.f4tBulkGbps2Cores)
	}
	if gbps8 < gbps2 {
		t.Errorf("F4T bulk at 8 cores %.1f Gbps below 2 cores' %.1f", gbps8, gbps2)
	}
}
