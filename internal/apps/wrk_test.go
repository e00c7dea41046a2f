package apps

import (
	"math/bits"
	"math/rand"
	"testing"

	"f4t/internal/cpu"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// TestWrkReadySetMatchesPredicate drives Wrk over fake threads whose
// connections the test perturbs at random — establishment, readable
// bytes (often less than a response, so reads come out partial), send
// space and core load — queuing a readiness event wherever a substrate
// would. After every Tick each thread's ready set must hold exactly the
// flows the predicate admits when evaluated over all of its flows.
func TestWrkReadySetMatchesPredicate(t *testing.T) {
	const threads, perThread, respSize = 3, 70, 256 // 70 flows span two words
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New()
		ths := make([]*fakeThread, threads)
		hts := make([]host.Thread, threads)
		for i := range ths {
			ths[i] = newFakeThread(k, nil)
			hts[i] = ths[i]
		}
		w := NewWrk(k, hts, 0, 80, 128, respSize, perThread, cpu.DefaultCosts())
		var partial int
		for step := 0; step < 3_000; step++ {
			for n := rng.Intn(6); n > 0; n-- {
				th := ths[rng.Intn(threads)]
				if len(th.conns) == 0 {
					continue
				}
				c := th.conns[rng.Intn(len(th.conns))]
				switch rng.Intn(4) {
				case 0:
					c.established = !c.established
					if c.established {
						c.push(host.EvConnected)
					} else {
						c.push(host.EvHangup)
					}
				case 1:
					c.avail += 1 + rng.Intn(respSize)
					c.push(host.EvReadable)
				case 2:
					c.sendSpace = rng.Intn(2) * (1 << 20)
					c.push(host.EvWritable)
				case 3:
					th.core.RunQueued(cpu.CatApp, int64(rng.Intn(3_000)))
				}
			}
			w.Tick(k.Now())
			for i := range w.th {
				wt := &w.th[i]
				set := 0
				for j := range wt.flows {
					f := &wt.flows[j]
					if f.awaiting && f.got > 0 {
						partial++
					}
					want := f.conn.Established() && (!f.awaiting || f.conn.Available() > 0)
					if got := wt.ready[j>>6]&(1<<(j&63)) != 0; got != want {
						t.Fatalf("seed %d step %d: thread %d flow %d ready bit %t, predicate %t", seed, step, i, j, got, want)
					}
				}
				for _, word := range wt.ready {
					set += bits.OnesCount64(word)
				}
				if set != wt.nReady {
					t.Fatalf("seed %d step %d: thread %d counts %d ready, set holds %d", seed, step, i, wt.nReady, set)
				}
			}
			k.Run(1 + int64(rng.Intn(200)))
		}
		if w.Responses.Total() == 0 || partial == 0 {
			t.Fatalf("seed %d: exercise too weak: %d responses, %d partial-read observations", seed, w.Responses.Total(), partial)
		}
	}
}
