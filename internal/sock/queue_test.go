package sock

import (
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// A readiness event pushed on a queue wakes the component that takes
// its events: in the push's cycle when the reader has not ticked yet,
// else in the next.
func TestQueuePushWakesReader(t *testing.T) {
	for _, readerFirst := range []bool{true, false} {
		for _, k := range []*sim.Kernel{sim.New(), sim.NewShadow()} {
			q := new(Queue)
			reader := &simtest.Probe{
				Act: func(int64) { q.Take() },
				Next: func(now int64) int64 {
					if q.Len() > 0 {
						return now + 1
					}
					return sim.Dormant
				},
			}
			writer := simtest.At(50, func() { q.Push(EvReadable, nil) })
			if readerFirst {
				k.Register(reader)
				k.Register(writer)
			} else {
				k.Register(writer)
				k.Register(reader)
			}
			q.SetWaker(reader.W)
			k.Run(100)
			want := int64(50)
			if readerFirst {
				want = 51
			}
			if k.Skipping() && (len(reader.Ticked) != 1 || reader.Ticked[0] != want) {
				t.Errorf("reader first %v: reader ticked %v, want [%d]", readerFirst, reader.Ticked, want)
			}
			if q.Len() != 0 {
				t.Errorf("reader first %v, skipping %v: %d events left", readerFirst, k.Skipping(), q.Len())
			}
		}
	}
}
