package fpc

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"f4t/internal/cc"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
)

// dueFlows is how many flow IDs a due script draws from: more than the
// FPC's four slots, so installs meet a full table and evictions matter.
const dueFlows = 6

// dueRun plays a fuzz script on one FPC and returns the log of its
// outputs with their cycles. With ticked set the FPC ticks every cycle;
// otherwise it ticks only when Due, and the driver jumps from each tick
// straight to its Next. It also returns how many of those due ticks a
// fresh NextWork shows were no-ops, and how many stimuli could have
// caused one: an input that brings no work, or a TX booking that moved
// the issue gate after the cache was computed.
//
// The script is read three bytes per step: the first names the step's
// kind (low three bits) and its gap in cycles from the previous step
// (high five bits), the other two its flow and size. Kinds: 0-2 route
// an event (a send request, a timeout, or an abort), 3 installs a new
// flow, 4 migrates one in through a reservation, 5 requests an
// eviction, 6 books TX bytes outside any pass, 7 only waits. A flow
// installed or migrated in may carry accumulated inputs. Every FPU pass
// books its segments on a sim.ByteRate that gates issue through
// IssueFrom, with a depth the script's first byte picks.
func dueRun(script []byte, ticked bool) (log []string, idle, stimuli int) {
	var hdr byte
	if len(script) > 0 {
		hdr, script = script[0], script[1:]
	}
	k := sim.New()
	rate := sim.GbpsRate(100)
	depth := int64(hdr>>1%64) + 1
	proto := tcpproc.DefaultConfig()
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", k.Now())+fmt.Sprintf(format, args...))
	}
	cfg := Config{
		Slots:      4,
		FPULatency: 3 + int(hdr>>2%8),
		Alg:        cc.MustNew("newreno"),
		Proto:      &proto,
		IssueFrom:  func() int64 { return rate.FreeAt() - depth + 1 },
	}
	if hdr&1 != 0 {
		cfg.Mode, cfg.StallNum, cfg.StallDen = ModeStall, 7, 3
	}
	migrating := map[flow.ID]bool{}
	f := New(k, cfg, Hooks{
		OnActions: func(t *flow.TCB, a *tcpproc.Actions) {
			bytes := int64(0) // scaled down so the gate opens within tens of cycles
			for _, s := range a.Segs {
				bytes += int64(s.Len)/32 + 54
			}
			if bytes > 0 {
				rate.Reserve(k.Now(), bytes)
				stimuli++
			}
			logf("act %d segs=%d notes=%d free=%v snd=%d", t.FlowID, len(a.Segs), len(a.Notes), a.FreeFlow, t.SndNxt)
		},
		OnEvict:      func(t *flow.TCB) { logf("evict %d valid=%d", t.FlowID, t.In.Valid) },
		OnInstall:    func(id flow.ID) { delete(migrating, id); logf("install %d", id) },
		OnEvictAbort: func(id flow.ID) { logf("abort %d", id) },
	})
	reqs := make([]seqnum.Value, dueFlows)
	for i := range reqs {
		reqs[i] = 1001
	}
	req := func(id flow.ID, size byte) flow.Event {
		reqs[id] = reqs[id].Add(seqnum.Size(size)*40 + 1)
		return reqEvent(id, reqs[id])
	}
	newFlow := func(id flow.ID, size byte) *flow.TCB {
		t := newTCB(id)
		if size&1 != 0 { // inputs accumulated while it lived elsewhere
			var row flow.EventRow
			ev := req(id, size)
			row.Accumulate(&ev)
			row.MergeInto(t)
		}
		return t
	}

	last := int64(0) // the last cycle the driver has run
	tick := func(c int64) {
		if ticked || f.Due(c) {
			if !ticked && f.NextWork(c-1) > c {
				idle++
			}
			f.Tick(c)
		}
		last = c
	}
	// runTo runs every cycle before c, leaving the kernel at c.
	runTo := func(c int64) {
		for last < c-1 {
			next := last + 1
			if !ticked {
				next = max(min(f.Next(last), c), last+1)
			}
			for k.Now() < next {
				k.Step()
			}
			if next == c {
				break
			}
			tick(next)
		}
		for k.Now() < c {
			k.Step()
		}
	}

	for ; len(script) >= 3; script = script[3:] {
		op, id, size := script[0], flow.ID(script[1]%dueFlows), script[2]
		c := last + int64(op>>3)
		if c == last {
			c++
		}
		runTo(c)
		stimuli++
		switch op & 7 {
		case 0:
			f.EnqueueEvent(req(id, size))
		case 1:
			f.EnqueueEvent(flow.Event{Kind: flow.EvTimeout, Flow: id, Timeouts: size & 15, Coalescable: true})
		case 2:
			if size < 32 {
				f.EnqueueEvent(flow.Event{Kind: flow.EvUser, Flow: id, Ctl: flow.CtlAbort})
			}
		case 3:
			if !f.Has(id) && !migrating[id] {
				f.InstallNew(newFlow(id, size))
			}
		case 4:
			if !f.Has(id) && !migrating[id] && f.ReserveSlot() {
				migrating[id] = true
				f.AcceptTCB(newFlow(id, size))
			}
		case 5:
			f.RequestEvict(id)
		case 6:
			rate.Reserve(k.Now(), int64(size)*4)
		}
		tick(c)
	}
	runTo(last + 3_000)
	log = append(log, fmt.Sprintf("processed=%d handled=%d stalls=%d", f.Processed.Total(), f.EventsHandled.Total(), f.Stalls.Total()))
	return log, idle, stimuli
}

// FuzzFPCDue holds the FPC's cached next cycle to the always-tick
// reference: one FPC ticked every cycle and one ticked only when Due
// must make the same hook calls on the same cycles and count the same
// passes and events. A missing stale mark on any input path shows as a
// late or lost pass; a missing refresh after the FPC's own tick leaves
// it due on every cycle, which the idle-tick bound catches.
func FuzzFPCDue(f *testing.F) {
	f.Add([]byte{0x00, 0x0b, 0, 0, 0x08, 0, 9, 0x10, 0, 200, 0x08, 0, 50})
	f.Add([]byte{0x10, 0x0b, 1, 1, 0x0b, 2, 0, 0x08, 1, 90, 0x0d, 1, 0, 0x0c, 3, 1, 0x18, 3, 7, 0x0e, 0, 255, 0x08, 3, 40})
	f.Add([]byte{0x01, 0x0b, 0, 0, 0x08, 0, 30, 0x08, 0, 30, 0x04, 0, 2, 0x09, 0, 1, 0x0a, 0, 3})
	f.Add([]byte{0x7e, 0x0b, 0, 0, 0x0b, 1, 0, 0x0b, 2, 0, 0x0b, 3, 0, 0x0d, 1, 0, 0x0c, 4, 3, 0x08, 4, 8, 0x08, 2, 100, 0x0d, 0, 0, 0x0c, 5, 0, 0x08, 5, 60})
	// Longer scripts, mostly send requests a few cycles apart, so events
	// pile up behind the handler, the FPU and the TX gate.
	r := rand.New(rand.NewPCG(35, 1))
	kinds := []byte{0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 4, 4, 5, 6}
	for hdr := range 8 {
		script := []byte{byte(hdr * 37)}
		for range 150 {
			op := byte(r.IntN(4))<<3 | kinds[r.IntN(len(kinds))]
			script = append(script, op, byte(r.IntN(dueFlows)), byte(r.IntN(256)))
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		want, _, _ := dueRun(script, true)
		got, idle, stimuli := dueRun(script, false)
		if idle > stimuli {
			t.Fatalf("%d due ticks were no-ops, but only %d stimuli could have made the cache early", idle, stimuli)
		}
		if !slices.Equal(want, got) {
			i := 0
			for i < min(len(want), len(got)) && want[i] == got[i] {
				i++
			}
			t.Fatalf("ticked when due diverges from ticked every cycle at line %d:\nevery cycle %q\nwhen due    %q",
				i, want[i:min(i+3, len(want))], got[i:min(i+3, len(got))])
		}
	})
}
