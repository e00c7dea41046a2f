package exp

import (
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/engine"
	"f4t/internal/engine/memmgr"
	"f4t/internal/sim"
)

// bulkRig builds the saturated bulk-transfer pair (the Fig 8a shape) and
// runs it past connection setup into steady state. carryBytes moves real
// payload end to end, as the bench's bulk_sat does.
func bulkRig(carryBytes bool) (*F4TPair, *apps.BulkSender) {
	p := NewF4TPair(2, 2, cpu.DefaultCosts(), func(c *engine.Config) { c.CarryBytes = carryBytes })
	sink := apps.NewSink(p.MachB.Threads(), 7003)
	p.K.Register(sink)
	p.K.Run(2_000)
	bs := apps.NewBulkSender(p.MachA.Threads(), 0, 7003, 1460)
	p.K.Register(bs)
	p.K.RunUntil(bs.Ready, 1_000_000)
	return p, bs
}

// BenchmarkBulkSaturated is the wall-clock figure of merit for the
// event-driven kernel work: a full rig build plus 500k saturated cycles.
// Run with -benchmem; the alloc count covers rig construction too, so
// the steady-state guard is TestBulkSteadyStateAllocs below.
func BenchmarkBulkSaturated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _ := bulkRig(false)
		p.K.Run(500_000)
	}
}

// BenchmarkBulkSteady measures the marginal cost of one saturated cycle
// with rig construction and warmup excluded — the number schema/4's
// ns_per_stepped_cycle tracks.
func BenchmarkBulkSteady(b *testing.B) {
	p, _ := bulkRig(false)
	p.K.Run(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.K.Run(1_000)
	}
}

// echoSwapRig builds the over-subscribed echo pair (Fig 13 past the knee,
// the bench's echo_swap shape): flows ping-pong 128 B over 1 024 FPC slots
// on DDR, so every round trip forces a memmgr swap and a sched migration.
// It returns with every flow established and the swap path warm.
func echoSwapRig(tb testing.TB) *F4TPair {
	const cores, port, flows = 8, 9001, 1536 // bench -quick's flow count
	p := NewF4TPair(cores, cores, cpu.DefaultCosts(), func(c *engine.Config) {
		c.Memory = memmgr.DDR
		c.CarryBytes = false
	})
	p.K.Register(apps.NewEchoServer(p.MachB.Threads(), port, 128))
	p.K.Run(2_000)
	cli := apps.NewEchoClient(p.KA, p.MachA.Threads(), 0, port, 128, flows/cores)
	p.K.Register(cli)
	if !RunUntilCoarse(p.K, cli.Ready, 50_000, 5_000_000+int64(flows)*400) {
		tb.Fatalf("echo ramp: %d/%d flows established", cli.Established(), flows)
	}
	// Warm: queues and tables reach steady size within 1 M cycles; the timer
	// wheel keeps ratcheting its slot arrays up (≈ 25 allocations per 10 k
	// cycles at 1 M, ≈ 4 at 3 M).
	p.K.Run(3_000_000)
	return p
}

// BenchmarkEchoSwapSteady is BenchmarkBulkSteady for the swap/migration
// path: the marginal cost of 1 000 cycles of the warmed over-subscribed
// echo rig.
func BenchmarkEchoSwapSteady(b *testing.B) {
	p := echoSwapRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.K.Run(1_000)
	}
}

// BenchmarkChurnSteady is BenchmarkBulkSteady for the connection life
// cycle: the quick churn rig (2^17 connections over 16 client endpoints)
// ramped to its plateau, then 10 000 cycles of churn per op — dials,
// handshakes, FIN and RST teardowns, TIME_WAIT expiries.
func BenchmarkChurnSteady(b *testing.B) {
	cfg := QuickChurnConfig()
	k := sim.New()
	r := newChurnRig(k, cfg)
	if !RunUntilCoarse(k, r.rampDone, 25_000, cfg.Budget) {
		b.Fatalf("churn ramp: %d of %d live after %d cycles", r.driver.live(), cfg.TargetFlows, cfg.Budget)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(10_000)
	}
}

// TestBulkSteadyStateAllocs pins the zero-allocation packet path: once a
// saturated bulk flow is warmed up (queues grown, pools primed, arenas
// sized), stepping the simulation must not allocate per cycle. The bound
// is per 10k-cycle window, so it tolerates a rare amortized growth event
// while failing loudly if any per-segment or per-cycle allocation sneaks
// back into the datapath, engine, hostif, softstack, or kernel timers.
func TestBulkSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs a warmed rig")
	}
	// CarryBytes on is the bench's bulk_sat, so this guard and the
	// ledger's host_allocs_per_sim_kcycle measure the same thing.
	for _, row := range []struct {
		name       string
		carryBytes bool
	}{{"modelled", false}, {"carry-bytes", true}} {
		t.Run(row.name, func(t *testing.T) {
			p, _ := bulkRig(row.carryBytes)
			p.K.Run(1_000_000) // warm: pools primed, queues at steady depth

			avg := testing.AllocsPerRun(20, func() {
				p.K.Run(10_000)
			})
			t.Logf("steady-state allocs per 10k-cycle window: %.2f", avg)
			// ~7 segments/10k cycles/direction at 1460 B over 100G — anything
			// near 1 alloc per window means a hot path regressed.
			if avg > 8 {
				t.Fatalf("steady-state bulk run allocates %.1f objects per 10k cycles, want ~0", avg)
			}
		})
	}
}

// TestEchoSwapSteadyStateAllocs pins the zero-allocation swap path: once
// the over-subscribed echo rig is warm, TCB swap-ins, evictions and
// DRAM-queue absorbs must not allocate. What remains is amortized growth
// (latency histogram, timer wheel). The same windows must see swap-ins and
// migrations advance, so the guard cannot pass on an idle rig.
func TestEchoSwapSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs a warmed rig")
	}
	p := echoSwapRig(t)
	sch := p.EngA.Scheduler()
	swapIns, migrations := sch.SwapIns.Total(), sch.Migrations.Total()

	avg := testing.AllocsPerRun(20, func() {
		p.K.Run(10_000)
	})
	swapIns, migrations = sch.SwapIns.Total()-swapIns, sch.Migrations.Total()-migrations
	t.Logf("steady-state allocs per 10k-cycle window: %.2f (%d swap-ins, %d migrations over the windows)", avg, swapIns, migrations)
	if swapIns < 100 || migrations < 100 {
		t.Fatalf("swap path idle during the guard: %d swap-ins, %d migrations", swapIns, migrations)
	}
	if avg > 8 {
		t.Fatalf("steady-state echo-swap run allocates %.1f objects per 10k cycles, want ~0", avg)
	}
}
