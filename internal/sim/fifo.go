package sim

// Queue is a bounded FIFO used to model hardware queues (command queues,
// coalesce FIFOs, pending queues). Capacity 0 means unbounded.
type Queue[T any] struct {
	buf  []T
	head int
	cap  int
}

// NewQueue returns a FIFO with the given capacity (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	q := MakeQueue[T](capacity)
	return &q
}

// MakeQueue is NewQueue by value, for a queue embedded in a component
// that is polled every cycle: its idle predicate then reads the queue
// lengths off the component's own cache lines instead of chasing one
// pointer per queue. The zero Queue is a ready unbounded FIFO. A Queue
// must not be copied once in use.
func MakeQueue[T any](capacity int) Queue[T] {
	return Queue[T]{cap: capacity}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.Len() >= q.cap }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Push appends v and reports whether it was accepted (false when full).
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.buf = append(q.buf, v)
	return true
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // allow GC of the element
	q.head++
	// Compact when the dead prefix dominates, amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	return q.buf[q.head], true
}

// Scan calls fn for each queued element in FIFO order until fn returns
// false. The callback may mutate elements through the pointer; this is how
// the coalesce FIFOs merge an incoming event into a queued one.
func (q *Queue[T]) Scan(fn func(*T) bool) {
	for i := q.head; i < len(q.buf); i++ {
		if !fn(&q.buf[i]) {
			return
		}
	}
}

// AtPtr returns a pointer to the i-th queued element in FIFO order
// (0 = oldest). Index-based iteration via Len/AtPtr lets hot paths scan
// without the closure Scan requires, which would force its captured
// locals to escape. The pointer is invalidated by the next Push or Pop.
func (q *Queue[T]) AtPtr(i int) *T { return &q.buf[q.head+i] }

// Truncate keeps the n oldest elements and discards the rest. Together
// with AtPtr it lets a caller filter a queue in place — copy each kept
// element down over the removed ones, then truncate to the kept count —
// with the survivors' FIFO order intact and no second queue.
func (q *Queue[T]) Truncate(n int) {
	clear(q.buf[q.head+n:]) // allow GC of the elements
	q.buf = q.buf[:q.head+n]
}

// Reset discards all elements.
func (q *Queue[T]) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
