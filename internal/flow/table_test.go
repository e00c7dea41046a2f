package flow

import "testing"

func TestTableGrowsWithHighestID(t *testing.T) {
	var tb Table[int]
	if tb.Len() != 0 {
		t.Fatalf("zero table has %d rows", tb.Len())
	}
	// Reads never grow the table, whatever the ID.
	if tb.Get(0) != 0 || tb.Get(70_000) != 0 || tb.Get(NoFlow) != 0 || tb.Len() != 0 {
		t.Fatalf("read of an empty table: len=%d", tb.Len())
	}
	tb.Clear(5)
	tb.Clear(NoFlow)
	if tb.Len() != 0 {
		t.Fatalf("clear grew the table to %d", tb.Len())
	}

	tb.Set(5, 50)
	if tb.Len() != 6 {
		t.Fatalf("len after Set(5) = %d, want 6 (highest ID + 1, not the ID space)", tb.Len())
	}
	for id := ID(0); id < 5; id++ {
		if tb.Get(id) != 0 {
			t.Fatalf("row %d below the written ID reads %d", id, tb.Get(id))
		}
	}
	if tb.Get(5) != 50 || tb.Get(6) != 0 {
		t.Fatalf("get(5)=%d get(6)=%d", tb.Get(5), tb.Get(6))
	}

	// A lower ID does not shrink or move anything; a higher one keeps the
	// rows already written.
	tb.Set(2, 20)
	*tb.At(9) += 90
	if tb.Len() != 10 || tb.Get(2) != 20 || tb.Get(5) != 50 || tb.Get(9) != 90 {
		t.Fatalf("after growth: len=%d rows=%d,%d,%d", tb.Len(), tb.Get(2), tb.Get(5), tb.Get(9))
	}
}

// TestTableIDReuse is the flow-ID life cycle: a cleared row reads as
// absent, exactly as a deleted map key did, and the next owner of the ID
// starts from zero without the table moving.
func TestTableIDReuse(t *testing.T) {
	type row struct {
		p *int
		n int
	}
	var tb Table[row]
	x := 7
	tb.Set(3, row{p: &x, n: 1})
	tb.At(3).n++
	if got := tb.Get(3); got.p != &x || got.n != 2 {
		t.Fatalf("row = %+v", got)
	}
	tb.Clear(3)
	if got := tb.Get(3); got != (row{}) {
		t.Fatalf("cleared row reads %+v", got)
	}
	if tb.Len() != 4 {
		t.Fatalf("clear changed len to %d", tb.Len())
	}
	tb.At(3).n++ // the ID's next owner
	if got := tb.Get(3); got.p != nil || got.n != 1 {
		t.Fatalf("reused row = %+v, want a fresh one", got)
	}
}

// TestTableAgainstMap drives a table and a map with the same writes and
// compares every read, including IDs past the end.
func TestTableAgainstMap(t *testing.T) {
	var tb Table[uint16]
	ref := map[ID]uint16{}
	seed := uint32(1)
	next := func(n uint32) uint32 {
		seed = seed*1664525 + 1013904223
		return (seed >> 8) % n
	}
	for step := 0; step < 5000; step++ {
		id := ID(next(300))
		switch next(3) {
		case 0:
			v := uint16(next(1000) + 1)
			tb.Set(id, v)
			ref[id] = v
		case 1:
			tb.Clear(id)
			delete(ref, id)
		case 2:
			*tb.At(id)++
			ref[id]++
		}
		probe := ID(next(400))
		if tb.Get(probe) != ref[probe] {
			t.Fatalf("step %d: table[%d]=%d map=%d", step, probe, tb.Get(probe), ref[probe])
		}
	}
	if tb.Len() > 300 {
		t.Fatalf("table grew to %d rows for IDs below 300", tb.Len())
	}
}

// TestIDsAgainstReference checks the allocator against a restatement of
// its contract: Alloc returns the most recently freed ID still waiting,
// else the lowest ID never drawn, else — ceiling IDs drawn — fails; no
// ID is ever live twice, and Live counts the IDs held.
func TestIDsAgainstReference(t *testing.T) {
	const ceiling = 40
	var ids IDs
	var live []ID           // allocated, not freed
	freedAt := map[ID]int{} // freed and waiting → step it was freed at
	drawn := 0              // IDs below drawn have been handed out once
	refused := 0
	seed := uint32(7)
	next := func(n uint32) uint32 {
		seed = seed*1664525 + 1013904223
		return (seed >> 8) % n
	}
	for step := 0; step < 5000; step++ {
		if ids.Live() != len(live) {
			t.Fatalf("step %d: Live = %d, %d IDs held", step, ids.Live(), len(live))
		}
		if len(live) > 0 && next(5) < 2 {
			i := int(next(uint32(len(live))))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			ids.Free(id)
			freedAt[id] = step
			continue
		}
		want, wantOK, last := ID(0), false, -1
		for id, at := range freedAt {
			if at > last {
				want, wantOK, last = id, true, at
			}
		}
		if wantOK {
			delete(freedAt, want)
		} else if drawn < ceiling {
			want, wantOK = ID(drawn), true
			drawn++
		}
		got, ok := ids.Alloc(ceiling)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("step %d: Alloc = %d, %v; want %d, %v", step, got, ok, want, wantOK)
		}
		if !ok {
			refused++
		} else {
			for _, id := range live {
				if id == got {
					t.Fatalf("step %d: ID %d handed out while live", step, got)
				}
			}
			live = append(live, got)
		}
	}
	if drawn != ceiling || refused == 0 {
		t.Fatalf("the schedule drew %d of %d IDs and was refused %d times: it must reach the ceiling", drawn, ceiling, refused)
	}
}
