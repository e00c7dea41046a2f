package sim

import (
	"fmt"
	"testing"
)

// relay is a minimal two-island workload: each tick it drains its
// inbox, logs what it saw, and forwards incremented tokens to its peer
// through the fabric's cross-island Poster after a fixed latency. It is
// the smallest rig that exercises registration slots, cross-shard
// mailboxes, and quiescence hints at once.
type relay struct {
	name string
	peer *relay
	post Poster
	lat  int64
	hops int

	inbox []int
	log   []string
}

func (r *relay) Tick(now int64) {
	if len(r.inbox) == 0 {
		return
	}
	pending := r.inbox
	r.inbox = nil
	for _, v := range pending {
		r.log = append(r.log, fmt.Sprintf("%s@%d recv %d", r.name, now, v))
		if v < r.hops {
			vv := v + 1
			peer := r.peer
			r.post.At(now+r.lat, func() { peer.inbox = append(peer.inbox, vv) })
		}
	}
}

func (r *relay) NextWork(now int64) int64 {
	if len(r.inbox) > 0 {
		return now
	}
	return Dormant
}

// buildRelayRig assembles the two-relay rig on any fabric. Island 0
// hosts A, island 1 hosts B; A starts with one token.
func buildRelayRig(f Fabric, lat int64, hops int) (*relay, *relay) {
	a := &relay{name: "A", lat: lat, hops: hops}
	b := &relay{name: "B", lat: lat, hops: hops}
	a.peer, b.peer = b, a
	a.post = f.CrossPost(0, 1, lat)
	b.post = f.CrossPost(1, 0, lat)
	f.RegisterOn(0, a)
	f.RegisterOn(1, b)
	a.inbox = append(a.inbox, 0)
	return a, b
}

// TestShardedMatchesSerial checks the tentpole property on the relay
// rig: per-island event logs are identical on the serial, shadow and
// sharded fabrics.
func TestShardedMatchesSerial(t *testing.T) {
	const lat, hops, span = 7, 40, 1000

	run := func(f Fabric) (alog, blog []string, now int64) {
		a, b := buildRelayRig(f, lat, hops)
		f.Run(span)
		return a.log, b.log, f.Now()
	}

	refA, refB, refNow := run(New())
	if len(refA) == 0 || len(refB) == 0 {
		t.Fatalf("reference run saw no traffic: A=%d B=%d", len(refA), len(refB))
	}
	for name, f := range map[string]Fabric{"shadow": NewShadow(), "sharded": NewSharded()} {
		gotA, gotB, gotNow := run(f)
		if gotNow != refNow {
			t.Errorf("%s: end cycle %d, want %d", name, gotNow, refNow)
		}
		diffLogs(t, name+" islandA", gotA, refA)
		diffLogs(t, name+" islandB", gotB, refB)
	}
}

func diffLogs(t *testing.T, name string, got, want []string) {
	t.Helper()
	n := len(got)
	if len(want) > n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, w := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: log[%d] = %q, want %q", name, i, g, w)
		}
	}
}

// TestShardedGlobalSlots pins that RegisterOn hands out fabric-global
// slot numbers in registration order regardless of island, so timer
// tie-breaks match a serial run with the same construction sequence.
func TestShardedGlobalSlots(t *testing.T) {
	sk := NewSharded()
	mk := func() Ticker { return TickerFunc(func(int64) {}) }
	sk.RegisterOn(0, mk())
	sk.RegisterOn(1, mk())
	sk.RegisterOn(0, mk())
	if got := sk.shard(0).tickers[0].slot; got != 0 {
		t.Errorf("island0 first ticker slot = %d, want 0", got)
	}
	if got := sk.shard(1).tickers[0].slot; got != 1 {
		t.Errorf("island1 first ticker slot = %d, want 1", got)
	}
	if got := sk.shard(0).tickers[1].slot; got != 2 {
		t.Errorf("island0 second ticker slot = %d, want 2", got)
	}
}

// TestShardedEmptyShardsFastPath: naming island i makes shards 0..i,
// each its own kernel; shards with no tickers or timers advance to the
// barrier without work, and a shard made after a run starts there.
func TestShardedEmptyShardsFastPath(t *testing.T) {
	sk := NewSharded()
	var ticks int64
	sk.RegisterOn(0, TickerFunc(func(int64) { ticks++ }))
	if k3 := sk.IslandKernel(3); k3 == sk.IslandKernel(0) || len(sk.shards) != 4 {
		t.Fatalf("island 3 made %d shards, want 4 distinct", len(sk.shards))
	}
	sk.Run(1000)
	if k := sk.IslandKernel(5); k.Now() != 1000 {
		t.Errorf("shard made at barrier 1000 starts at cycle %d", k.Now())
	}
	sk.Run(1000)
	if ticks != 2000 {
		t.Errorf("island0 ticked %d times, want 2000", ticks)
	}
	for i, k := range sk.shards {
		if got := k.Now(); got != 2000 {
			t.Errorf("shard %d at cycle %d, want 2000", i, got)
		}
	}
}

// TestShardedRunUntilBarrierGrid: with a 10-cycle lookahead the
// predicate is only observed at barriers, so RunUntil overshoots to the
// next multiple of the window.
func TestShardedRunUntilBarrierGrid(t *testing.T) {
	sk := NewSharded()
	sk.RegisterOn(0, TickerFunc(func(int64) {}))
	sk.RegisterOn(1, TickerFunc(func(int64) {}))
	sk.CrossPost(0, 1, 10)
	ok := sk.RunUntil(func() bool { return sk.Now() >= 25 }, 1000)
	if !ok {
		t.Fatal("RunUntil did not satisfy predicate")
	}
	if sk.Now() != 30 {
		t.Errorf("stopped at %d, want barrier 30", sk.Now())
	}
}

// TestShardedOutsidePostsOrderAsSerial: timers posted by code outside
// any component on two islands, due on a third in the same cycle, fire
// in posting order on every fabric, as one serial kernel's counter
// orders them — also when posted at a barrier after a window ran.
func TestShardedOutsidePostsOrderAsSerial(t *testing.T) {
	run := func(f Fabric) string {
		var log []string
		p0, p1 := f.CrossPost(0, 2, 10), f.CrossPost(1, 2, 10)
		f.RegisterOn(2, TickerFunc(func(int64) {}))
		post := func(at int64) {
			for i := 0; i < 3; i++ {
				i := i
				p1.At(at, func() { log = append(log, fmt.Sprintf("b%d@%d", i, at)) })
				p0.At(at, func() { log = append(log, fmt.Sprintf("a%d@%d", i, at)) })
			}
		}
		post(20)
		// A timer from outside any component runs at cycle 15, inside
		// the window that ends there, and posts before the barrier does.
		f.IslandKernel(0).At(15, func() {
			for i := 0; i < 3; i++ {
				i := i
				p0.At(40, func() { log = append(log, fmt.Sprintf("c%d@40", i)) })
			}
		})
		f.Run(15)
		post(40)
		f.Run(100)
		return fmt.Sprint(log)
	}
	want := run(New())
	for name, f := range map[string]Fabric{"shadow": NewShadow(), "sharded": NewSharded()} {
		if got := run(f); got != want {
			t.Errorf("%s: %s, serial %s", name, got, want)
		}
	}
}

// TestShardedLookaheadViolationPanics: posting a cross-shard event
// inside the current window means the declared minimum latency was
// wrong; the mailbox must refuse loudly rather than lose determinism.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	sk := NewSharded()
	post := sk.CrossPost(0, 1, 10)
	liar := TickerFunc(func(now int64) {
		if now == 3 {
			post.At(now+2, func() {}) // violates the declared latency of 10
		}
	})
	sk.RegisterOn(0, liar)
	// Island 1 stays empty so the window runs inline on this goroutine
	// and the panic is recoverable.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	sk.Run(100)
}

// TestShardedStop: Stop from a component inside a window halts at that
// window's barrier. Both islands are busy, so the shards run on their
// own goroutines and -race checks the call.
func TestShardedStop(t *testing.T) {
	sk := NewSharded()
	sk.CrossPost(0, 1, 10)
	sk.RegisterOn(1, TickerFunc(func(int64) {}))
	sk.RegisterOn(0, TickerFunc(func(now int64) {
		if now == 25 {
			sk.Stop()
		}
	}))
	sk.Run(1000)
	if sk.Now() != 30 {
		t.Errorf("stopped at %d, want 30", sk.Now())
	}
}

// TestSerialFabricEquivalence: building the relay rig through the
// Kernel's own Fabric implementation is byte-identical to the plain
// serial construction — the property that lets one rig builder serve
// both modes.
func TestSerialFabricEquivalence(t *testing.T) {
	k1 := New()
	a1, b1 := buildRelayRig(k1, 7, 40)
	k1.Run(1000)

	k2 := New()
	a2, b2 := buildRelayRig(k2, 7, 40)
	k2.Run(1000)

	diffLogs(t, "islandA", a2.log, a1.log)
	diffLogs(t, "islandB", b2.log, b1.log)
}
