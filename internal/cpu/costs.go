// Package cpu models the host processor of the evaluation testbed: Xeon
// Gold 5118 cores at 2.3 GHz executing work items with calibrated
// per-operation costs, and cycle accounting by category for the CPU
// utilization breakdowns (Figs 1a, 11).
//
// Every constant below is derived from a number the paper itself reports
// (or a measurement the paper cites); the figures are then *emergent*
// from simulation — the model fixes per-operation costs, not ratios.
package cpu

// CoreHz is the evaluation CPU frequency (§5: Xeon Gold 5118, 2.3 GHz).
const CoreHz = 2_300_000_000

// CyclesToNS converts CPU cycles to nanoseconds (rounded up).
func CyclesToNS(cycles int64) int64 {
	return (cycles*1_000_000_000 + CoreHz - 1) / CoreHz
}

// Category buckets CPU time for the utilization breakdowns.
type Category uint8

// Accounting categories matching Fig 1a / Fig 11.
const (
	CatApp    Category = iota // application work (Nginx request handling)
	CatTCP                    // TCP/IP stack processing
	CatKernel                 // other kernel work (syscall shell, vfs, scheduling)
	CatF4TLib                 // F4T library (command posting, completion polling)
	CatIdle
	numCategories
)

// Names for reporting.
var categoryNames = [...]string{"app", "tcp", "kernel-other", "f4t-lib", "idle"}

// Name returns the category label used in the breakdown tables.
func (c Category) Name() string { return categoryNames[c] }

// Costs is the calibrated per-operation cost table, in CPU cycles.
//
// Calibration anchors (all from the paper):
//   - Fig 8a: Linux bulk 128 B with 8 cores reaches 8.3 Gbps ⇒
//     ~1.01 Mrps/core ⇒ ~2,270 cycles per send() incl. TCP TX work.
//   - Fig 8b: Linux round-robin (16 flows/core) reaches 0.126 Gbps on one
//     core ⇒ ~0.123 Mrps ⇒ ~18,700 cycles/request: losing TSO batching
//     and flow locality multiplies per-request work ~8× (per-packet
//     sk_buff/qdisc/driver work plus cold-cache flow state).
//   - §1: 104 cores saturate 100 Gbps at 128 B ⇒ ~0.93 Mrps/core, which
//     cross-checks the bulk figure (the 128 B wire-rate is 60.7 Mpps).
//   - Fig 8a: F4T reaches 45 Gbps (44 Mrps) at 128 B on ONE core ⇒
//     ~52 cycles per request in the F4T library (queue write + amortized
//     MMIO doorbell).
//   - Fig 8b: F4T round-robin one core = 34 Mrps ⇒ ~68 cycles/request —
//     the extra ~16 cycles are the additional per-packet completions.
//   - Fig 1a: Nginx on Linux spends 37 % of cycles in TCP; with the
//     TCP cost fixed above, AppRequestWork + kernel-other are sized so
//     the share lands there (≈256 B responses, vfs_read in the kernel
//     bucket per Fig 11's observation).
type Costs struct {
	// Linux software stack path.
	Syscall        int64 // mode switch in/out (kept even with TSO on)
	TCPTxBulk      int64 // per send() TCP TX work with TSO+flow locality
	TCPTxSmall     int64 // per send() without batching (round-robin traffic)
	TCPRxPacket    int64 // softirq RX path per packet (ACK or data)
	TCPRxPacketGRO int64 // per additional packet merged by GRO [22]
	TCPConnSetup   int64 // handshake processing per connection
	SkbPerByte     int64 // copy+checksum cost per 64 payload bytes
	FlowSwitch     int64 // cache/TLB penalty when touching a cold flow

	// F4T library path (§4.6).
	F4TPostCmd       int64 // build 16 B command + queue write
	F4TDoorbell      int64 // MMIO write, amortized over the batch
	F4TDoorbellBatch int64 // commands per doorbell (MMIO batching)
	F4TCompletion    int64 // poll + apply one completion
	F4TPollMiss      int64 // one empty poll iteration

	// Application (Nginx model) work per HTTP request.
	AppParseRequest  int64 // HTTP parse + route
	AppBuildResponse int64 // header render + logging
	VfsRead          int64 // file fetch from page cache (kernel bucket, Fig 11)
	EpollWait        int64 // epoll_wait + wakeup amortized per event batch

	// Linux-path timing jitter (deterministic, seeded): every kernel
	// operation varies by ±JitterPct, and SpikeProb of them hit a
	// SpikeCycles preemption/softirq stall — the source of the Linux
	// tail in Fig 12.
	JitterPct   int64
	SpikeProb   float64
	SpikeCycles int64

	// wrk-style load generator per request (client side).
	GenRequest int64
}

// DefaultCosts returns the calibrated table (see the type comment for the
// derivation of each anchor).
func DefaultCosts() Costs {
	return Costs{
		Syscall:        900,
		TCPTxBulk:      1500,
		TCPTxSmall:     11000,
		TCPRxPacket:    2800,
		TCPRxPacketGRO: 400,
		TCPConnSetup:   12000,
		SkbPerByte:     10, // per 64 B chunk
		FlowSwitch:     2400,

		F4TPostCmd:       40,
		F4TDoorbell:      300,
		F4TDoorbellBatch: 32,
		F4TCompletion:    35,
		F4TPollMiss:      20,

		AppParseRequest:  2300,
		AppBuildResponse: 1800,
		VfsRead:          1050,
		EpollWait:        900,

		JitterPct:   15,
		SpikeProb:   0.0001,
		SpikeCycles: 2_500_000, // ~1.1 ms involuntary preemption / softirq storm

		GenRequest: 800,
	}
}

// LinuxSendTCPCost returns the TCP-stack cycles of one send() of n
// bytes (the syscall shell is charged separately to the kernel bucket).
// bulk selects the TSO/flow-locality fast path; cold adds the
// flow-switch penalty.
func (c *Costs) LinuxSendTCPCost(n int, bulk, cold bool) int64 {
	var cost int64
	if bulk {
		cost += c.TCPTxBulk
	} else {
		cost += c.TCPTxSmall
	}
	cost += int64((n+63)/64) * c.SkbPerByte
	if cold {
		cost += c.FlowSwitch
	}
	return cost
}

// LinuxRecvTCPCost returns the TCP-stack cycles of one recv() consuming
// n bytes (copy out of the socket buffer), excluding the syscall shell.
func (c *Costs) LinuxRecvTCPCost(n int, cold bool) int64 {
	cost := int64((n+63)/64) * c.SkbPerByte
	if cold {
		cost += c.FlowSwitch / 2 // the other half hits the kernel shell
	}
	return cost
}

// F4TSendCost returns the cycles one F4T-library send() costs: a plain
// function call that writes a 16 B command, with the doorbell MMIO
// amortized across the batch (§4.6).
func (c *Costs) F4TSendCost() int64 {
	return c.F4TPostCmd + c.F4TDoorbell/c.F4TDoorbellBatch
}
