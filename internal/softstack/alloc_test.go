package softstack

import (
	"testing"

	"f4t/internal/seqnum"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// TestPollSteadyStateAllocs guards the library's hot path against
// per-operation garbage: once a connection is established and the
// event double-buffer and rings have reached their high-water marks, a
// full poll→read→repost cycle (the netapi facade's pump shape, using
// the split-effect ReadAt/ReadInto + PostRecv surface) must not
// allocate.
func TestPollSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 1)
	r.lb.Listen(80)
	var srv sock.Conn
	cli := r.la.Dial(wire.MakeAddr(10, 1, 0, 2), 80)
	if cli == nil {
		t.Fatal("dial failed")
	}
	ok := r.pump(1_000_000, func() bool {
		for _, ev := range r.lb.Poll() {
			if ev.Kind == sock.EvAccepted {
				srv = ev.Conn
			}
		}
		return cli.Established() && srv != nil
	})
	if !ok {
		t.Fatal("handshake timed out")
	}

	chunk := make([]byte, 1024)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	rbuf := make([]byte, 4096)
	moved := 0
	step := func() {
		// Client: stage one chunk into the TX ring and post the send.
		if cli.SendSpace() >= len(chunk) {
			ptr := cli.WritePtr()
			cli.WriteAt(ptr, chunk)
			cli.PostSend(ptr.Add(seqnum.Size(len(chunk))))
		}
		r.k.Run(4_000)
		// Both sides: drain completions one by one and take the events
		// (the double-buffer hands the same storage back and forth).
		for r.la.PollOne() {
		}
		for range r.la.Events.Take() {
		}
		for r.lb.PollOne() {
		}
		for range r.lb.Events.Take() {
		}
		// Server: copy out whatever arrived with the allocation-free
		// read, then re-open the window.
		if n := srv.Available(); n > 0 {
			if n > len(rbuf) {
				n = len(rbuf)
			}
			p := srv.ReadPtr()
			srv.ReadAt(p, rbuf[:n])
			srv.PostRecv(p.Add(seqnum.Size(n)))
			moved += n
		}
	}
	// Warm up: grow the event buffers, rings and timer structures to
	// their steady-state sizes before measuring.
	for i := 0; i < 100; i++ {
		step()
	}
	if moved == 0 {
		t.Fatal("warmup moved no bytes; rig is not in steady state")
	}
	avg := testing.AllocsPerRun(200, step)
	if avg > 0.1 {
		t.Fatalf("steady-state poll cycle allocates %.2f objects/op, want 0", avg)
	}
}
