package sim

import "testing"

// TestQueueScanAcrossCompaction drives head past the compaction
// threshold (head > 64 with a dominating dead prefix) and checks that
// Scan still visits exactly the live elements, in order, before and
// after the buffer shifts down.
func TestQueueScanAcrossCompaction(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 200; i++ {
		q.Push(i)
	}
	// Pop 100: the compaction branch fires on the 100th pop
	// (head=100, len=200 → head*2 >= len).
	for i := 0; i < 100; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	want := 100
	q.Scan(func(v *int) bool {
		if *v != want {
			t.Fatalf("scan saw %d, want %d", *v, want)
		}
		want++
		return true
	})
	if want != 200 {
		t.Fatalf("scan visited %d elements, want 100", want-100)
	}
	// Mutation through Scan must survive compaction and reach Pop.
	q.Scan(func(v *int) bool {
		if *v == 150 {
			*v = -150
			return false
		}
		return true
	})
	for i := 100; i < 200; i++ {
		v, ok := q.Pop()
		wantV := i
		if i == 150 {
			wantV = -150
		}
		if !ok || v != wantV {
			t.Fatalf("pop = %d,%v want %d", v, ok, wantV)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: len=%d", q.Len())
	}
}

// TestQueueResetReuse checks Reset with a non-zero head restores a
// clean FIFO that still enforces its capacity.
func TestQueueResetReuse(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Reset()
	if q.Len() != 0 || !q.Empty() {
		t.Fatalf("after reset: len=%d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from reset queue succeeded")
	}
	for i := 10; i < 14; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected after reset", i)
		}
	}
	if q.Push(99) {
		t.Fatal("capacity not enforced after reset")
	}
	for i := 10; i < 14; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
}

// TestQueueVsOracle drives the queue through a long deterministic
// random op sequence against a plain-slice oracle, over capacities that
// exercise the bounded, small and unbounded paths.
func TestQueueVsOracle(t *testing.T) {
	for _, capacity := range []int{0, 1, 5, 64} {
		r := NewRand(uint64(1000 + capacity))
		q := NewQueue[int](capacity)
		var oracle []int
		next := 0
		for op := 0; op < 20000; op++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3: // push
				v := next
				next++
				accepted := q.Push(v)
				wantAccept := capacity == 0 || len(oracle) < capacity
				if accepted != wantAccept {
					t.Fatalf("cap=%d op=%d: push accepted=%v want %v", capacity, op, accepted, wantAccept)
				}
				if accepted {
					oracle = append(oracle, v)
				}
			case 4, 5, 6: // pop
				v, ok := q.Pop()
				if ok != (len(oracle) > 0) {
					t.Fatalf("cap=%d op=%d: pop ok=%v oracle len=%d", capacity, op, ok, len(oracle))
				}
				if ok {
					if v != oracle[0] {
						t.Fatalf("cap=%d op=%d: pop=%d want %d", capacity, op, v, oracle[0])
					}
					oracle = oracle[1:]
				}
			case 7: // peek
				v, ok := q.Peek()
				if ok != (len(oracle) > 0) || (ok && v != oracle[0]) {
					t.Fatalf("cap=%d op=%d: peek=%d,%v oracle=%v", capacity, op, v, ok, oracle)
				}
			case 8: // scan a random prefix, occasionally mutating
				limit := 0
				if len(oracle) > 0 {
					limit = r.Intn(len(oracle) + 1)
				}
				seen := 0
				q.Scan(func(p *int) bool {
					if seen >= limit {
						return false
					}
					if *p != oracle[seen] {
						t.Fatalf("cap=%d op=%d: scan[%d]=%d want %d", capacity, op, seen, *p, oracle[seen])
					}
					if *p%7 == 0 {
						*p = -*p
						oracle[seen] = -oracle[seen]
					}
					seen++
					return true
				})
			case 9: // occasional full checks; rare reset
				if q.Len() != len(oracle) || q.Empty() != (len(oracle) == 0) {
					t.Fatalf("cap=%d op=%d: len=%d oracle=%d", capacity, op, q.Len(), len(oracle))
				}
				if r.Intn(50) == 0 {
					q.Reset()
					oracle = oracle[:0]
				}
			}
		}
		// Drain and compare the tail.
		for len(oracle) > 0 {
			v, ok := q.Pop()
			if !ok || v != oracle[0] {
				t.Fatalf("cap=%d drain: pop=%d,%v want %d", capacity, v, ok, oracle[0])
			}
			oracle = oracle[1:]
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("cap=%d: queue longer than oracle", capacity)
		}
	}
}

// TestQueueFilterInPlace is the AtPtr + Truncate idiom the memory manager
// uses to drop one flow's events from a queue: with a non-zero head (and
// across the compaction threshold) the survivors keep FIFO order, the
// length is exact, the queue still enforces its capacity and accepts
// pushes, and a by-value queue behaves like a NewQueue one.
func TestQueueFilterInPlace(t *testing.T) {
	for _, popped := range []int{0, 3, 70} {
		q := MakeQueue[int](0)
		for i := 0; i < 200; i++ {
			q.Push(i)
		}
		for i := 0; i < popped; i++ {
			q.Pop()
		}
		kept := 0
		for i, n := 0, q.Len(); i < n; i++ {
			if v := *q.AtPtr(i); v%3 != 0 {
				*q.AtPtr(kept) = v
				kept++
			}
		}
		q.Truncate(kept)
		q.Push(1000)
		var got, want []int
		for v, ok := q.Pop(); ok; v, ok = q.Pop() {
			got = append(got, v)
		}
		for i := popped; i < 200; i++ {
			if i%3 != 0 {
				want = append(want, i)
			}
		}
		want = append(want, 1000)
		if len(got) != len(want) {
			t.Fatalf("popped %d: %d survivors, want %d", popped, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("popped %d: survivor %d = %d, want %d", popped, i, got[i], want[i])
			}
		}
	}

	q := MakeQueue[int](4)
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Truncate(1)
	if q.Len() != 1 || q.Full() {
		t.Fatalf("after truncate: len=%d full=%v", q.Len(), q.Full())
	}
	for i := 0; i < 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected after truncate", i)
		}
	}
	if q.Push(99) {
		t.Fatal("capacity not enforced after truncate")
	}
	q.Truncate(0)
	if !q.Empty() {
		t.Fatal("truncate to zero left elements")
	}
}
