package timerq

import "f4t/internal/flow"

// heapQueue is the lazy-deletion min-heap the wheel replaced, kept as
// the in-package reference oracle: the differential property tests
// assert that wheel and heap fire identical (id, kind) sets at identical
// deadlines under randomized arm/advance schedules, and the benchmarks
// measure the swap. Semantics match Queue exactly; only the fire order
// of same-advance entries differs (the heap's at-ties are unspecified,
// the wheel's are arm-order).
type heapQueue struct {
	h      []entry
	seq    uint64
	forgot map[flow.ID]uint64 // Forget watermarks: arm seq at the last Forget
}

func newHeapQueue() *heapQueue { return &heapQueue{forgot: map[flow.ID]uint64{}} }

func (q *heapQueue) Len() int { return len(q.h) }

func (q *heapQueue) Arm(id flow.ID, kind uint8, at int64) {
	if at <= 0 {
		return
	}
	q.seq++
	q.push(entry{at: at, seq: q.seq, id: id, kind: kind})
}

func (q *heapQueue) Forget(id flow.ID) { q.forgot[id] = q.seq }

func (q *heapQueue) SyncFromTCB(t *flow.TCB) {
	q.Arm(t.FlowID, flow.TORetrans, t.RetransAt)
	q.Arm(t.FlowID, flow.TOProbe, t.ProbeAt)
	q.Arm(t.FlowID, flow.TODelAck, t.DelAckAt)
	q.Arm(t.FlowID, flow.TOTimeWait, t.TimeWaitAt)
	q.Arm(t.FlowID, flow.TOKeepalive, t.KeepaliveAt)
}

func (q *heapQueue) Expire(nowNS int64, lookup func(flow.ID) *flow.TCB, fire func(id flow.ID, kind uint8)) {
	for len(q.h) > 0 && q.h[0].at <= nowNS {
		e := q.pop()
		if e.seq <= q.forgot[e.id] {
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
		if current == 0 || current > nowNS {
			continue
		}
		fire(e.id, e.kind)
	}
}

func (q *heapQueue) NextDeadline() int64 {
	if len(q.h) == 0 {
		return 0
	}
	return q.h[0].at
}

func (q *heapQueue) push(e entry) {
	q.h = append(q.h, e)
	s := q.h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (q *heapQueue) pop() entry {
	s := q.h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s = s[:n]
	q.h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].at < s[min].at {
			min = l
		}
		if r < n && s[r].at < s[min].at {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return e
}
