package main

import (
	"runtime"
	"sort"
	"time"

	"f4t/internal/sim"
)

// subWindows is how many equal slices the measured window is cut into, and
// quietSlice which of them, fastest first, is host_ns_per_sim_cycle: the
// lower decile. On a shared two-core sandbox other tenants slow whole
// stretches of a run by 10-30 %, which moves the median of a run's slices
// as much as its mean (run-to-run spread 7-16 % over ten runs); the lower
// decile stays on the undisturbed slices (spread 5-7 %), and a change that
// makes the simulator slower moves it like any other quantile.
const (
	subWindows = 20
	quietSlice = 2
)

// window is the host-side measurement of one measured window.
type window struct {
	cycles                 int64
	stepped                int64 // cycles the kernel executed (cycles - skipped)
	skips                  int64
	subNS                  [subWindows]float64 // wall ns per simulated cycle, per slice
	wallNS                 int64
	mallocs                uint64
	heapStartMB, heapEndMB float64
}

// nsPerCycle is the lower-decile slice's wall ns per simulated cycle.
func (w *window) nsPerCycle() float64 {
	s := append([]float64{}, w.subNS[:]...)
	sort.Float64s(s)
	return s[quietSlice]
}

func (w *window) skippedPct() float64 {
	if w.cycles == 0 {
		return 0
	}
	return 100 * float64(w.cycles-w.stepped) / float64(w.cycles)
}

// measureWindow advances the rig by cycles simulated cycles in subWindows
// equal slices, timing each. The heap is collected first, so every window
// starts from the live rig only, and again at the end, so heapEndMB is
// live state and not garbage. ht, when set, samples kernel iterations for
// the duration.
func measureWindow(run func(n int64), k *sim.Kernel, cycles int64, ht *hostTracer) window {
	w := window{cycles: cycles}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.heapStartMB = float64(m0.HeapAlloc) / (1 << 20)
	skipped0, skips0 := k.SkippedCycles(), k.Skips()
	if ht != nil {
		ht.start()
	}
	slice := cycles / subWindows
	for i := 0; i < subWindows; i++ {
		n := slice
		if i == subWindows-1 {
			n = cycles - slice*(subWindows-1)
		}
		t0 := time.Now()
		run(n)
		d := time.Since(t0).Nanoseconds()
		w.wallNS += d
		w.subNS[i] = float64(d) / float64(n)
	}
	if ht != nil {
		ht.stop()
	}
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.stepped = cycles - (k.SkippedCycles() - skipped0)
	w.skips = k.Skips() - skips0
	runtime.GC()
	w.heapEndMB = heapMB()
	return w
}
