package apps

import "f4t/internal/cpu"

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

// coreWake folds a core-gated wake into next: the thread has work right
// now but must wait for its core to free up. It returns the updated
// minimum and whether the caller can stop scanning because the very
// next cycle is already reached.
func coreWake(next int64, core *cpu.Core, now int64) (int64, bool) {
	w := core.NextFree(now)
	if w <= now+1 {
		return now + 1, true
	}
	if w < next {
		next = w
	}
	return next, false
}
