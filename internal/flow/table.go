package flow

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
