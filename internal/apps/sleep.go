package apps

import (
	"f4t/internal/host"
	"f4t/internal/sim"
)

// This file holds the shared plumbing behind the apps' NextWork methods
// (sim.Sleeper). Each workload reports the earliest future cycle it
// could act — readiness events awaiting Poll, or buffered work gated on
// its thread's core — so the kernel can skip the quiescent spans in
// between (RTT waits in ping-pong workloads, mostly).
//
// The contract that keeps skipping exact: an app may only report a
// future cycle when its Tick would be a no-op (no counter increments,
// no externally visible state change) at every cycle before it. State
// the apps react to — connection establishment, readiness events,
// received bytes — only flips while a machine or engine ticks, and a
// ticking component pins those cycles as stepped, so the app observes
// every transition on the same cycle it would have without skipping.
//
// Every such flip also queues a readiness event on the connection's
// thread, which host.Thread.EventsPending reports for free. An app
// therefore polls only when EventsPending is true (an empty Poll
// delivers nothing and bills nothing), reports now+1 while it is, and
// otherwise needs to look only at the work it already holds: Wrk's
// ready set, the servers' pending lists. None of them rescans every
// connection it owns to decide.

// idleUntil is the NextWork of an app whose thread i holds work gated
// on its core exactly when busy(i): the next cycle while any thread has
// events to poll, else the earliest cycle a busy thread's core frees up.
func idleUntil(threads []host.Thread, now int64, busy func(i int) bool) int64 {
	next := sim.Dormant
	for i, th := range threads {
		if th.EventsPending() {
			return now + 1
		}
		if busy(i) {
			w := th.Core().NextFree(now)
			if w <= now+1 {
				return now + 1
			}
			next = min(next, w)
		}
	}
	return next
}
