// Package timerq implements the timer module of §4.1.2 ③: per-flow timer
// deadlines generating timeout events. Arming is lazy — re-arming pushes
// a new entry with no cancel path, and stale entries are validated
// against the TCB's current deadline at expiry — the same trade a
// hardware timer wheel makes.
//
// The store is a hierarchical timer wheel (the classic Varghese/Lauck
// scheme, and the shape of the paper's hardware timer module): three
// levels of 256 slots at 2^10, 2^18, and 2^26 ns granularity, plus an
// overflow list for deadlines beyond the ~17 s horizon. Arm is O(1);
// advancing collects only the slots the clock actually crossed, and an
// entry cascades through at most numLevels-1 refits over its lifetime.
// It replaced a lazy-deletion min-heap whose O(log n) churn and
// container/heap boxing dominated timer cost at high flow counts; the
// heap survives as the in-package reference oracle (heapref_test.go)
// for the differential property tests.
package timerq

import (
	"math/bits"

	"f4t/internal/flow"
)

const (
	slotBits  = 8
	numSlots  = 1 << slotBits // 256 slots per level
	slotMask  = numSlots - 1
	numLevels = 3

	// l0Shift sets level-0 granularity: 2^10 ns ≈ 1 µs per slot, 256 µs
	// per revolution — finer than any protocol timer (min delayed-ACK and
	// retransmission timeouts are hundreds of µs to ms), so a timer's
	// firing cycle is never quantized: entries are collected by slot but
	// fired only when their exact ns deadline has passed.
	l0Shift = 10
	// topShift is the coarsest level's granularity (2^26 ns ≈ 67 ms per
	// slot). Deadlines more than 256 top-level slots out (~17 s) go to
	// the overflow list, which is refitted once per top-level slot
	// crossing — long before any of its entries can come due.
	topShift = l0Shift + (numLevels-1)*slotBits
)

// entry is one scheduled expiry. seq is the global arm sequence number:
// the deterministic tie-break that makes same-deadline fire order
// insertion order.
type entry struct {
	at   int64 // ns deadline
	seq  uint64
	id   flow.ID
	kind uint8 // flow.TO* bit
}

type level struct {
	slots [numSlots][]entry
	// mins caches each slot's earliest deadline (valid while the slot is
	// occupied) and occ is the slot-occupancy bitmap. Together they make
	// NextDeadline O(levels) instead of a per-entry scan — the engine
	// polls it every stepped cycle — and let the every-call level-0
	// sweep skip slots holding only future entries.
	mins [numSlots]int64
	occ  [numSlots / 64]uint64
}

func (l *level) setOcc(idx int)   { l.occ[idx>>6] |= 1 << uint(idx&63) }
func (l *level) clearOcc(idx int) { l.occ[idx>>6] &^= 1 << uint(idx&63) }

// firstOccupied returns the first occupied slot at or after ring
// position `from` (wrapping), or -1 when the level is empty.
func (l *level) firstOccupied(from int) int {
	const words = numSlots / 64
	w0 := from >> 6
	if b := l.occ[w0] & (^uint64(0) << uint(from&63)); b != 0 {
		return w0<<6 + bits.TrailingZeros64(b)
	}
	for i := 1; i < words; i++ {
		w := (w0 + i) & (words - 1)
		if b := l.occ[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	if b := l.occ[w0] &^ (^uint64(0) << uint(from&63)); b != 0 {
		return w0<<6 + bits.TrailingZeros64(b)
	}
	return -1
}

// Queue holds pending timer deadlines for many flows.
type Queue struct {
	now  int64 // wheel time: the nowNS of the most recent Expire
	lv   [numLevels]level
	over []entry // deadlines beyond the wheel horizon
	ovMn int64   // earliest at in over; 0 when over is empty

	n   int
	seq uint64

	// forgot is each flow ID's arm-sequence watermark: entries armed at or
	// below it belong to an earlier holder of a recycled ID (Forget).
	forgot flow.Table[uint64]

	// Cached earliest pending deadline. Arm keeps it fresh (a new
	// earlier deadline just lowers it); any removal invalidates it and
	// NextDeadline recomputes from the wheel.
	minAt    int64
	minValid bool

	scratch []entry // due-entry collection buffer, reused across Expires

	// freeArrs recycles the backing arrays of emptied slots. Without it
	// the wheel never reaches an allocation-free steady state: timer
	// deadlines drift in phase relative to the 256-slot rings, so arms
	// keep landing in never-before-occupied slots (a fresh append-growth
	// each time) even after millions of cycles. A swept-empty slot
	// donates its array here; insert adopts one for a bare slot.
	freeArrs [][]entry
}

// New returns an empty timer queue.
func New() *Queue { return &Queue{} }

// Len returns the number of pending (possibly stale) entries.
func (q *Queue) Len() int { return q.n }

func shift(l int) uint { return uint(l0Shift + l*slotBits) }

// Arm schedules a timeout of the given kind for the flow at ns deadline
// `at` (ignored when 0 = disarmed).
func (q *Queue) Arm(id flow.ID, kind uint8, at int64) {
	if at <= 0 {
		return
	}
	q.seq++
	q.insert(entry{at: at, seq: q.seq, id: id, kind: kind})
	q.n++
	if q.minValid && at < q.minAt {
		q.minAt = at
	}
}

// Forget retires every entry armed so far for id: its flow is gone, and
// the ID may be handed to a new flow whose deadlines must not meet the
// old one's entries. They stay queued (Len and NextDeadline still count
// them, as they count any stale entry) and are discarded at expiry
// without a lookup — what a lookup that finds no flow does.
func (q *Queue) Forget(id flow.ID) { q.forgot.Set(id, q.seq) }

// MarkBytes is the storage of the Forget watermarks (memory accounting).
func (q *Queue) MarkBytes() int64 { return q.forgot.MemBytes() }

// SyncFromTCB arms entries for every non-zero deadline in the TCB. Call
// after a processing pass; stale earlier entries are filtered at expiry.
func (q *Queue) SyncFromTCB(t *flow.TCB) {
	q.Arm(t.FlowID, flow.TORetrans, t.RetransAt)
	q.Arm(t.FlowID, flow.TOProbe, t.ProbeAt)
	q.Arm(t.FlowID, flow.TODelAck, t.DelAckAt)
	q.Arm(t.FlowID, flow.TOTimeWait, t.TimeWaitAt)
	q.Arm(t.FlowID, flow.TOKeepalive, t.KeepaliveAt)
}

// insert places the entry in the finest level whose window covers its
// deadline, or the overflow list beyond the wheel horizon. Overdue
// deadlines are clamped into the current slot so the next Expire
// collects them.
func (q *Queue) insert(e entry) {
	at := e.at
	if at < q.now {
		at = q.now
	}
	for l := 0; l < numLevels; l++ {
		sh := shift(l)
		if (at>>sh)-(q.now>>sh) < numSlots {
			lv := &q.lv[l]
			idx := int((at >> sh) & slotMask)
			if len(lv.slots[idx]) == 0 {
				lv.setOcc(idx)
				lv.mins[idx] = e.at
				if cap(lv.slots[idx]) == 0 {
					if k := len(q.freeArrs) - 1; k >= 0 {
						lv.slots[idx] = q.freeArrs[k]
						q.freeArrs[k] = nil
						q.freeArrs = q.freeArrs[:k]
					}
				}
			} else if e.at < lv.mins[idx] {
				lv.mins[idx] = e.at
			}
			lv.slots[idx] = append(lv.slots[idx], e)
			return
		}
	}
	if q.ovMn == 0 || e.at < q.ovMn {
		q.ovMn = e.at
	}
	q.over = append(q.over, e)
}

// Expire advances the wheel to nowNS, pops every entry due at or before
// it, validates each against the flow's current deadline via lookup, and
// invokes fire for the live ones in (deadline, arm-order) order. lookup
// returns nil for freed flows (entries are discarded); it is not asked
// about entries a Forget retired.
func (q *Queue) Expire(nowNS int64, lookup func(flow.ID) *flow.TCB, fire func(id flow.ID, kind uint8)) {
	prev := q.now
	q.now = nowNS
	if q.n == 0 {
		return
	}
	due := q.scratch[:0]

	// Overflow: refit once per top-level slot crossing (entries re-enter
	// the wheel long before they come due), plus a safety net for an
	// advance that overshoots the horizon in one jump.
	if len(q.over) > 0 && (prev>>topShift != nowNS>>topShift || q.ovMn <= nowNS) {
		due = q.refitOverflow(nowNS, due)
	}

	// Upper levels cascade only when their cursor moved: an entry parked
	// there cannot come due before the cursor crosses into its slot, and
	// a crossed entry with a future deadline always refits into a finer
	// level (its distance has shrunk below the finer window).
	for l := numLevels - 1; l >= 1; l-- {
		if prev>>shift(l) != nowNS>>shift(l) {
			due = q.sweep(l, prev, nowNS, due)
		}
	}
	// Level 0 is swept every call: its current slot may hold entries
	// whose exact deadline passed inside the slot's 1 µs span.
	due = q.sweep(0, prev, nowNS, due)

	q.scratch = due[:0] // keep the backing array for the next Expire
	if len(due) == 0 {
		return
	}
	q.n -= len(due)
	q.minValid = false
	sortDue(due)
	for i := range due {
		e := &due[i]
		if e.seq <= q.forgot.Get(e.id) {
			continue
		}
		t := lookup(e.id)
		if t == nil {
			continue
		}
		var current int64
		switch e.kind {
		case flow.TORetrans:
			current = t.RetransAt
		case flow.TOProbe:
			current = t.ProbeAt
		case flow.TODelAck:
			current = t.DelAckAt
		case flow.TOTimeWait:
			current = t.TimeWaitAt
		case flow.TOKeepalive:
			current = t.KeepaliveAt
		}
		// Stale when the deadline moved or was disarmed since this entry
		// was pushed.
		if current == 0 || current > nowNS {
			continue
		}
		fire(e.id, e.kind)
	}
}

// sweep visits the level's slots crossed between prev and now (capped at
// one full revolution — a longer jump meets every slot once), collecting
// due entries and refitting future ones into finer levels.
func (q *Queue) sweep(l int, prev, now int64, due []entry) []entry {
	sh := shift(l)
	first := prev >> sh
	span := now>>sh - first
	if span > numSlots-1 {
		span = numSlots - 1
	}
	lv := &q.lv[l]
	for s := int64(0); s <= span; s++ {
		idx := int((first + s) & slotMask)
		slot := lv.slots[idx]
		if len(slot) == 0 {
			continue
		}
		if l == 0 && lv.mins[idx] > now {
			// Nothing in this slot is due yet, and level-0 entries never
			// refit — skip the compaction. This matters because level 0
			// is swept every Expire: without the check, a busy engine
			// re-copies the current slot's pending entries each tick.
			continue
		}
		kept := slot[:0]
		var kmin int64
		for _, e := range slot {
			switch {
			case e.at <= now:
				due = append(due, e)
			case l > 0 && e.at>>sh <= now>>sh:
				// The cursor entered the entry's own slot, so it fits a
				// finer level now (within one coarse slot, the finer-level
				// distance is < numSlots); insert never re-targets the
				// slot being swept.
				q.insert(e)
			default:
				// Future deadline — including an entry that merely shares
				// this ring position while sitting a full revolution
				// ahead; it stays until the cursor reaches its absolute
				// slot.
				if kmin == 0 || e.at < kmin {
					kmin = e.at
				}
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			lv.clearOcc(idx)
			// Donate the emptied slot's array so the next bare slot —
			// likely at a different ring position — reuses it instead of
			// growing from nil.
			lv.slots[idx] = nil
			if cap(kept) > 0 {
				q.freeArrs = append(q.freeArrs, kept)
			}
		} else {
			lv.slots[idx] = kept
			lv.mins[idx] = kmin
		}
	}
	return due
}

// refitOverflow drains overflow entries back into the wheel (or the due
// list); entries still beyond the horizon are kept and ovMn recomputed.
func (q *Queue) refitOverflow(now int64, due []entry) []entry {
	kept := q.over[:0]
	q.ovMn = 0
	for _, e := range q.over {
		switch {
		case e.at <= now:
			due = append(due, e)
		case (e.at>>topShift)-(now>>topShift) < numSlots:
			q.insert(e) // fits the top level now, never re-overflows
		default:
			if q.ovMn == 0 || e.at < q.ovMn {
				q.ovMn = e.at
			}
			kept = append(kept, e)
		}
	}
	q.over = kept
	return due
}

// sortDue orders the due list by (deadline, arm sequence) — insertion
// sort, since an advance rarely collects more than a handful of entries,
// and sort.Slice would allocate on this per-tick path.
func sortDue(s []entry) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && (s[j].at > e.at || (s[j].at == e.at && s[j].seq > e.seq)) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// NextDeadline returns the earliest pending deadline, or 0 when empty.
// The value is exact (not a slot-granularity bound): the engine's
// NextWork idle promise depends on it, and an over-estimate would let
// the skipping kernel sleep past a timer the shadow kernel fires.
func (q *Queue) NextDeadline() int64 {
	if q.n == 0 {
		return 0
	}
	if !q.minValid {
		q.minAt = q.computeMin()
		q.minValid = true
	}
	return q.minAt
}

// computeMin takes each level's first occupied slot at or after its
// cursor — within a level, slots partition disjoint deadline ranges in
// ring order, so the first occupied one contains that level's earliest
// entry, and its cached slot-min gives the exact deadline. The global
// minimum can live in any level (a coarse entry armed long ago may
// precede everything currently in level 0), hence the min across all of
// them plus the overflow. Bitmap scan + cached mins keep this O(levels):
// it runs on nearly every stepped cycle under load, since any collecting
// Expire invalidates the cache and the engine's NextWork polls it.
func (q *Queue) computeMin() int64 {
	var min int64
	for l := 0; l < numLevels; l++ {
		lv := &q.lv[l]
		cursor := int((q.now >> shift(l)) & slotMask)
		if idx := lv.firstOccupied(cursor); idx >= 0 {
			if m := lv.mins[idx]; min == 0 || m < min {
				min = m
			}
		}
	}
	if q.ovMn != 0 && (min == 0 || q.ovMn < min) {
		min = q.ovMn
	}
	return min
}
