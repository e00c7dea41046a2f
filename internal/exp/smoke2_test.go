package exp

import "testing"

func TestSmokeRRBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	var bulk2, bulk8 float64
	for _, c := range []struct {
		rr    bool
		size  int
		cores int
	}{
		{true, 128, 4}, {true, 128, 8}, {true, 64, 8}, {false, 128, 2}, {false, 128, 8}, {false, 16, 16},
	} {
		r := TransferPoint("f4t", c.rr, c.size, c.cores, nil)
		t.Logf("f4t rr=%-5v size=%-4d cores=%-2d -> %6.1f Gbps %6.1f Mrps", c.rr, c.size, c.cores, r.GoodputGbps, r.Mrps)
		if !c.rr && c.size == 128 {
			switch c.cores {
			case 2:
				bulk2 = r.GoodputGbps
			case 8:
				bulk8 = r.GoodputGbps
			}
		}
	}
	checkF4TBulk(t, bulk2, bulk8)
}
