package exp

import (
	"math"
	"sync/atomic"
	"testing"
)

// TestSweepCoversEveryIndexOnce checks the sweep worker pool's only
// contract: every index in [0, n) runs exactly once, for any worker
// count (including degenerate ones). Cell placement is by index, so
// this is what makes the Fig 9, 13 and 16a tables, swept over
// GOMAXPROCS workers, identical to a serial loop's.
func TestSweepCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		const n = 37
		var counts [n]int32
		Sweep(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i := range counts {
			if counts[i] != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, counts[i])
			}
		}
	}
	Sweep(0, 4, func(i int) { t.Errorf("point called for n=0: index %d", i) })
}

// TestSweepRealRigsMatchSerial is the end-to-end half of that contract:
// a row of real, independent rigs swept over a worker pool gives the
// serial table bit for bit. The cells are short transfers on both stacks
// so the test can ride the race row.
func TestSweepRealRigsMatchSerial(t *testing.T) {
	cells := []struct {
		stack      string
		roundRobin bool
		size       int
	}{
		{"linux", true, 64},
		{"f4t", false, 1460},
		{"f4t", true, 1460},
	}
	row := func(workers int) []uint64 {
		bits := make([]uint64, 2*len(cells))
		Sweep(len(cells), workers, func(i int) {
			c := cells[i]
			r := TransferPoint(c.stack, c.roundRobin, c.size, 1, nil)
			bits[2*i] = math.Float64bits(r.GoodputGbps)
			bits[2*i+1] = math.Float64bits(r.Mrps)
		})
		return bits
	}
	serial, pooled := row(1), row(len(cells))
	for i := range serial {
		if serial[i] == 0 {
			t.Errorf("cell %d value %d is zero: dead rig", i/2, i%2)
		}
		if serial[i] != pooled[i] {
			t.Errorf("cell %d value %d: pooled sweep diverged from the serial sweep", i/2, i%2)
		}
	}
}
