package flow

import "unsafe"

// Table is a dense per-flow memory: one T per flow ID, indexed directly,
// as the hardware's location LUT, CAM and TCB store are (§4.3.1–4.3.2,
// §4.4.2). The zero T means "absent", which is what a missing map key
// read as. The table grows with the highest ID ever written — a rig pays
// for the flows it opens, not for the 64 K ID space — and never shrinks:
// freed IDs are reused before new ones are drawn.
type Table[T any] struct {
	rows []T
}

// Get returns id's entry; an ID never written reads as the zero T.
func (t *Table[T]) Get(id ID) (v T) {
	if uint64(id) < uint64(len(t.rows)) {
		v = t.rows[id]
	}
	return v
}

// At returns a pointer to id's entry, growing the table to hold it. The
// pointer is invalidated by the next At or Set of a larger ID.
func (t *Table[T]) At(id ID) *T {
	if n := int(id) + 1 - len(t.rows); n > 0 {
		t.rows = append(t.rows, make([]T, n)...)
	}
	return &t.rows[id]
}

// Set writes id's entry, growing the table to hold it.
func (t *Table[T]) Set(id ID, v T) { *t.At(id) = v }

// Clear resets id's entry to absent.
func (t *Table[T]) Clear(id ID) {
	if uint64(id) < uint64(len(t.rows)) {
		var zero T
		t.rows[id] = zero
	}
}

// Len is one past the highest ID ever written: every present entry has
// an ID below it.
func (t *Table[T]) Len() int { return len(t.rows) }

// MemBytes is the row storage below Len (memory accounting).
func (t *Table[T]) MemBytes() int64 {
	var zero T
	return int64(len(t.rows)) * int64(unsafe.Sizeof(zero))
}

// IDs allocates the flow IDs that index Tables: freed IDs are reused,
// most recently freed first, before a new one is drawn, so the ID space —
// and every Table over it — stays as dense as the live population.
type IDs struct {
	free []ID
	next ID // IDs below next have been drawn
}

// Alloc draws an ID. It reports false when no freed ID is waiting and
// ceiling IDs have already been drawn.
func (a *IDs) Alloc(ceiling int) (ID, bool) {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id, true
	}
	if int(a.next) >= ceiling {
		return 0, false
	}
	id := a.next
	a.next++
	return id, true
}

// Free returns an ID for reuse; it must be live (drawn and not yet freed).
func (a *IDs) Free(id ID) { a.free = append(a.free, id) }

// Live is the number of IDs drawn and not yet freed: the live flow count
// of an owner that frees an ID exactly when it drops the flow.
func (a *IDs) Live() int { return int(a.next) - len(a.free) }
