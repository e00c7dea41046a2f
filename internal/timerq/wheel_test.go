package timerq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"f4t/internal/flow"
)

// timerStore is the surface shared by the wheel and the heap oracle.
type timerStore interface {
	Len() int
	Arm(id flow.ID, kind uint8, at int64)
	SyncFromTCB(t *flow.TCB)
	Expire(nowNS int64, lookup func(flow.ID) *flow.TCB, fire func(id flow.ID, kind uint8))
	NextDeadline() int64
}

// TestWheelMatchesHeap drives the wheel and the reference heap through
// identical randomized schedules (see wheelMatchesHeap) from four seeds.
func TestWheelMatchesHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			wheelMatchesHeap(t, 4000, rng.Intn)
		})
	}
}

// FuzzWheelMatchesHeap is TestWheelMatchesHeap with the schedule read
// from the fuzz input: every choice consumes one byte.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 5, 3, 4, 9, 3, 0, 3})
	f.Add([]byte("\x04\x07\x03\x00\x02\x05\x03\x05\x01\x03\x04\x03\x03"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		pick := func(n int) int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b) % n
		}
		wheelMatchesHeap(t, len(ops), pick)
	})
}

// wheelMatchesHeap runs one schedule of arm / re-arm / advance / Forget /
// ID-reuse steps on the wheel and the heap, with pick(n) choosing in
// [0, n), and asserts after every step that they fired the same (id,
// kind) sets at the same deadlines, report the same NextDeadline and hold
// the same number of pending entries.
func wheelMatchesHeap(t *testing.T, steps int, pick func(n int) int) {
	t.Helper()
	kinds := []uint8{flow.TORetrans, flow.TOProbe, flow.TODelAck, flow.TOTimeWait, flow.TOKeepalive}
	setDeadline := func(tcb *flow.TCB, kind uint8, at int64) {
		switch kind {
		case flow.TORetrans:
			tcb.RetransAt = at
		case flow.TOProbe:
			tcb.ProbeAt = at
		case flow.TODelAck:
			tcb.DelAckAt = at
		case flow.TOTimeWait:
			tcb.TimeWaitAt = at
		case flow.TOKeepalive:
			tcb.KeepaliveAt = at
		}
	}
	// Deltas span every wheel level: sub-slot, level 0/1/2, and past the
	// ~17 s horizon into the overflow list.
	deltas := []int64{200, 900, 40_000, 3_000_000, 900_000_000, 20_000_000_000}

	const flows = 64
	tcbs := make([]flow.TCB, flows)
	for i := range tcbs {
		tcbs[i].FlowID = flow.ID(i)
	}
	look := func(id flow.ID) *flow.TCB { return &tcbs[id] }
	wheel := New()
	oracle := newHeapQueue()
	now := int64(0)

	for step := 0; step < steps; step++ {
		switch pick(6) {
		case 0, 1: // re-arm a random subset of one flow's deadlines
			tcb := &tcbs[pick(flows)]
			for _, k := range kinds {
				switch pick(3) {
				case 0:
					setDeadline(tcb, k, now+deltas[pick(len(deltas))]+int64(pick(1000)))
				case 1:
					setDeadline(tcb, k, 0) // disarm
				}
			}
			wheel.SyncFromTCB(tcb)
			oracle.SyncFromTCB(tcb)
		case 2: // direct Arm, including already-due deadlines
			id := flow.ID(pick(flows))
			k := kinds[pick(len(kinds))]
			at := now - 500 + int64(pick(2000))
			setDeadline(&tcbs[id], k, at)
			wheel.Arm(id, k, at)
			oracle.Arm(id, k, at)
		case 3: // advance time and expire on both
			now += deltas[pick(len(deltas))] / int64(1+pick(100))
			var wf, of []string
			wheel.Expire(now, look, func(id flow.ID, kind uint8) {
				wf = append(wf, fmt.Sprintf("%d/%d", id, kind))
			})
			oracle.Expire(now, look, func(id flow.ID, kind uint8) {
				of = append(of, fmt.Sprintf("%d/%d", id, kind))
			})
			sort.Strings(wf)
			sort.Strings(of)
			if fmt.Sprint(wf) != fmt.Sprint(of) {
				t.Fatalf("step %d now=%d: wheel fired %v, heap fired %v", step, now, wf, of)
			}
		case 4: // the flow is freed: its entries are forgotten, its TCB
			// keeps whatever deadlines it had, as a freed stack.Conn's does
			id := flow.ID(pick(flows))
			wheel.Forget(id)
			oracle.Forget(id)
		case 5: // the ID is freed and handed to a new flow, which arms a
			// deadline of its own at once, possibly one its predecessor
			// also held
			id := flow.ID(pick(flows))
			wheel.Forget(id)
			oracle.Forget(id)
			tcbs[id] = flow.TCB{FlowID: id}
			k := kinds[pick(len(kinds))]
			at := now + int64(pick(2000))
			setDeadline(&tcbs[id], k, at)
			wheel.Arm(id, k, at)
			oracle.Arm(id, k, at)
		}
		if w, o := wheel.NextDeadline(), oracle.NextDeadline(); w != o {
			t.Fatalf("step %d now=%d: wheel NextDeadline=%d, heap=%d", step, now, w, o)
		}
		if w, o := wheel.Len(), oracle.Len(); w != o {
			t.Fatalf("step %d now=%d: wheel Len=%d, heap Len=%d", step, now, w, o)
		}
	}
}

// TestWheelOverflowHorizon pins the overflow path: a deadline past the
// ~17 s wheel horizon is reported exactly by NextDeadline, survives the
// cascade back into the wheel, and fires exactly once at its deadline.
func TestWheelOverflowHorizon(t *testing.T) {
	q := New()
	const deadline = int64(30_000_000_000) // 30 s
	tcb := &flow.TCB{FlowID: 5, KeepaliveAt: deadline}
	look := func(id flow.ID) *flow.TCB { return tcb }
	q.SyncFromTCB(tcb)
	if got := q.NextDeadline(); got != deadline {
		t.Fatalf("NextDeadline = %d, want %d", got, deadline)
	}
	var fired int
	for now := int64(0); now <= deadline+1_000_000_000; now += 250_000_000 {
		q.Expire(now, look, func(id flow.ID, kind uint8) {
			fired++
			if now < deadline {
				t.Fatalf("fired at %d, before deadline %d", now, deadline)
			}
			if id != 5 || kind != flow.TOKeepalive {
				t.Fatalf("fired (%d, %d)", id, kind)
			}
		})
		if fired == 0 {
			if got := q.NextDeadline(); got != deadline {
				t.Fatalf("now=%d: NextDeadline = %d, want %d", now, got, deadline)
			}
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

// TestWheelFireOrderDeterministic pins the wheel's tie-break: entries
// collected by one advance fire in (deadline, arm-order) order.
func TestWheelFireOrderDeterministic(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 1, RetransAt: 100, ProbeAt: 100, DelAckAt: 50}
	look := func(id flow.ID) *flow.TCB { return tcb }
	q.Arm(1, flow.TORetrans, 100)
	q.Arm(1, flow.TOProbe, 100)
	q.Arm(1, flow.TODelAck, 50)
	var got []uint8
	q.Expire(200, look, func(id flow.ID, kind uint8) { got = append(got, kind) })
	want := []uint8{flow.TODelAck, flow.TORetrans, flow.TOProbe}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// benchmarkChurn measures steady-state arm/re-arm churn: every iteration
// re-arms one flow's retransmission deadline, and periodic Expire calls
// advance the clock, firing and re-arming due entries — the access
// pattern the engine's fireTimers/SyncFromTCB path produces at scale.
func benchmarkChurn(b *testing.B, q timerStore, flows int) {
	tcbs := make([]flow.TCB, flows)
	look := func(id flow.ID) *flow.TCB { return &tcbs[id] }
	now := int64(0)
	for i := range tcbs {
		tcbs[i].FlowID = flow.ID(i)
		tcbs[i].RetransAt = int64(200_000 + i*37)
		q.Arm(flow.ID(i), flow.TORetrans, tcbs[i].RetransAt)
	}
	fire := func(id flow.ID, kind uint8) {
		t := &tcbs[id]
		t.RetransAt = now + 200_000 + int64(id%1024)*17
		q.Arm(id, kind, t.RetransAt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := flow.ID(i % flows)
		now += 400
		t := &tcbs[id]
		t.RetransAt = now + 150_000 + int64(i%97)*1000
		q.Arm(id, flow.TORetrans, t.RetransAt)
		if i%64 == 0 {
			q.Expire(now, look, fire)
		}
	}
}

func BenchmarkWheelChurn1k(b *testing.B)  { benchmarkChurn(b, New(), 1_000) }
func BenchmarkWheelChurn64k(b *testing.B) { benchmarkChurn(b, New(), 64_000) }
func BenchmarkWheelChurn1M(b *testing.B)  { benchmarkChurn(b, New(), 1_000_000) }
func BenchmarkHeapChurn1k(b *testing.B)   { benchmarkChurn(b, newHeapQueue(), 1_000) }
func BenchmarkHeapChurn64k(b *testing.B)  { benchmarkChurn(b, newHeapQueue(), 64_000) }
func BenchmarkHeapChurn1M(b *testing.B)   { benchmarkChurn(b, newHeapQueue(), 1_000_000) }
