package apps

import (
	"f4t/internal/flow"
	"f4t/internal/host"
)

// connSet is an insertion-ordered set of one thread's connections. Apps
// track connections with pending work in one; plain map iteration would
// make runs non-deterministic. Positions are indexed by handle, and a
// member is the connection at its handle's position, so a connection
// that has left the set — or a predecessor whose handle was reused —
// never reads as one.
type connSet struct {
	list []host.Conn
	pos  flow.Table[int32] // handle → index in list, valid for members
	snap []host.Conn       // Each's reusable snapshot buffer
}

func (s *connSet) has(c host.Conn) bool {
	i := int(s.pos.Get(c.Handle()))
	return i < len(s.list) && s.list[i] == c
}

func (s *connSet) Add(c host.Conn) {
	if s.has(c) {
		return
	}
	s.pos.Set(c.Handle(), int32(len(s.list)))
	s.list = append(s.list, c)
}

func (s *connSet) Remove(c host.Conn) {
	if !s.has(c) {
		return
	}
	i, last := s.pos.Get(c.Handle()), len(s.list)-1
	s.list[i] = s.list[last]
	s.pos.Set(s.list[i].Handle(), i)
	s.list = s.list[:last]
}

func (s *connSet) Len() int { return len(s.list) }

// Each visits every member in a stable order; the callback may Remove
// members (including the current one) or Add new ones (visited on the
// next Each). The snapshot buffer is reused across calls — Each runs
// every app tick, and a fresh copy per tick would dominate app-side
// allocation. Each does not nest (apps drive it from a single thread
// loop).
func (s *connSet) Each(fn func(c host.Conn)) {
	snapshot := append(s.snap[:0], s.list...)
	s.snap = snapshot
	for _, c := range snapshot {
		if s.has(c) {
			fn(c)
		}
	}
}
