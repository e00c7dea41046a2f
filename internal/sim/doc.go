// Package sim provides the deterministic discrete-time simulation kernel
// used by every F4T model: a 250 MHz tick clock, component registry,
// cycle-resolution timers, seeded randomness and rate limiters.
//
// All simulated hardware advances in units of one engine clock cycle
// (4 ns at 250 MHz). Components implement Ticker and tick in
// registration order, which keeps runs bit-for-bit reproducible.
//
// # Ticking only what is due
//
// The kernel acts on events, as F4T's hardware does: a doorbell or an
// arriving packet starts work, and nothing polls an idle component. A
// component that implements Sleeper reports, via NextWork, the earliest
// cycle at which it could act (Dormant when only a stimulus from outside
// can revive it); its Tick before that cycle must be a pure no-op. A
// Sleeper that also takes a Waker (Wakeable) is bound at registration,
// and the kernel then keeps its NextWork cached:
//
//   - NextWork is asked right after the component's own Tick, and for
//     every component on entry to Run and RunUntil, because code outside
//     a step may change anything. Nothing else re-asks it.
//   - A step ticks only the components that are due: their cached cycle
//     has come, a timer they scheduled fires (its callback runs as that
//     component), or something woke them. A timer scheduled outside any
//     component makes every component due.
//   - The clock jumps over every cycle in which nothing is due, to the
//     earliest of the cached cycles, the pending wakes and the next
//     timer. No component code runs in a skipped span, so every counter,
//     timer and rate is what per-cycle stepping would produce.
//
// That is sound only under the wake discipline: code outside a component
// that can make it busy wakes it, through the Waker it was handed.
// Packet arrival wakes the engine, the Linux machine, the software node
// and the router port; a doorbell wakes the engine; a completion batch
// landing wakes whoever polls the channel; a readiness event queued on a
// thread wakes its app; a stack timer armed outside its owner's Tick
// wakes the owner at the deadline. A wake raised in cycle c makes the
// target due in c when the target has not ticked in c yet (from the
// timer phase, or from a component earlier in tick order), else in c+1
// — the tick the always-step loop gave it.
//
// A Sleeper without SetWaker (a decorator, a test fake) is unbound: it
// ticks on every stepped cycle and is asked NextWork before every skip,
// the kernel's behaviour before caching. Any ticker that is not a
// Sleeper pins the kernel to per-cycle stepping.
//
// NewShadow runs the always-step loop with the same cache and checks
// the discipline: it panics, naming the component, when one the
// skipping kernel would leave idle on a cycle it steps has work, or when
// a cached cycle is later than a fresh NextWork where the skipping
// kernel would jump.
//
// # Three fabrics
//
// A rig built on a Fabric runs on New (the serial kernel every result
// comes from), NewShadow, or NewSharded (one shard per island, the
// determinism witness). None takes a setting. The differential tests in
// internal/exp and every simtest.FabricMatrix run a rig on all three
// and compare cycle-stamped counters bit for bit.
package sim
