package hostif

import (
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// fetchBatch is how many commands FtEngine reads from a queue per DMA
// fetch ("FtEngine reads multiple commands from each command queue at
// once", §5.1).
const fetchBatch = 16

// Channel is one per-thread command/completion queue pair living in
// hugepage DMA memory (§4.1.1). The host posts commands and polls
// completions; the device fetches commands over PCIe and DMAs
// completions back, writing the software doorbell.
type Channel struct {
	k        *sim.Kernel
	pcie     *PCIe
	cmdBytes int64

	host     *sim.Queue[Command] // posted by host, not yet fetched
	device   *sim.Queue[Command] // fetched, visible to the engine
	fetching int                 // DMA reads in flight (pipelined)

	comps *sim.Queue[Completion] // arrived completions, host-visible

	onPost func()    // doorbell hook: fires when a Post leaves a fetch able to start
	land   sim.Waker // the completion poller, woken as a batch lands

	// Pooled DMA batches and their prebound landing callbacks: each
	// in-flight transfer carries a recycled batch struct through AtCall
	// instead of a fresh slice plus closure, keeping the saturated
	// command/completion path allocation-free. Free lists are per-channel
	// (channels are single-shard objects), so recycling is deterministic.
	cmdDoneFn  func(any)
	compDoneFn func(any)
	cmdFree    []*cmdBatch
	compFree   []*compBatch

	// Stats.
	Posted    int64
	Fetched   int64
	Completed int64

	// Telemetry (nil when disabled; see telemetry.go).
	trc *telemetry.Trace
	tid int32
}

// cmdBatch is one in-flight command DMA read (at most fetchBatch
// commands per fetch).
type cmdBatch struct {
	cmds [fetchBatch]Command
	n    int
}

// compBatch is one in-flight completion DMA write.
type compBatch struct {
	comps []Completion
}

// NewChannel builds a queue pair. cmdBytes is 16 (default) or 8 (the §6
// PCIe optimization).
func NewChannel(k *sim.Kernel, pcie *PCIe, cmdBytes int64) *Channel {
	c := &Channel{
		k:        k,
		pcie:     pcie,
		cmdBytes: cmdBytes,
		host:     sim.NewQueue[Command](QueueDepth),
		device:   sim.NewQueue[Command](QueueDepth),
		comps:    sim.NewQueue[Completion](0),
	}
	c.cmdDoneFn = func(arg any) {
		b := arg.(*cmdBatch)
		for i := 0; i < b.n; i++ {
			c.device.Push(b.cmds[i])
		}
		c.Fetched += int64(b.n)
		c.fetching--
		b.n = 0
		c.cmdFree = append(c.cmdFree, b)
	}
	c.compDoneFn = func(arg any) {
		b := arg.(*compBatch)
		for _, cp := range b.comps {
			c.comps.Push(cp)
		}
		c.Completed += int64(len(b.comps))
		b.comps = b.comps[:0]
		c.compFree = append(c.compFree, b)
		c.land.Wake()
	}
	return c
}

// SetDoorbell registers the MMIO doorbell: a callback invoked when a
// host Post leaves a fetch able to start. The engine uses it to wake
// out of a quiescent skip when a command arrives. A Post into a full
// fetch pipeline rings nothing: the fetch that completes first makes
// the engine due, and it starts the next fetch then.
func (c *Channel) SetDoorbell(fn func()) { c.onPost = fn }

// SetWaker names the component that polls the completion queue: every
// completion batch landing wakes it.
func (c *Channel) SetWaker(w sim.Waker) { c.land = w }

// Post enqueues a command from the host thread. It reports false when the
// queue is full (the library must retry — a blocking-API path, §4.6).
func (c *Channel) Post(cmd Command) bool {
	if !c.host.Push(cmd) {
		return false
	}
	c.Posted++
	if c.onPost != nil && c.fetching < maxFetchesInFlight {
		c.onPost()
	}
	return true
}

// NextWork reports the earliest cycle the channel can make progress on
// its own: immediately while fetched commands await the engine's drain,
// or while posted commands wait and a fetch slot is free. With every
// slot busy only a fetch completing can change anything, and that runs
// on a kernel timer the engine scheduled, which makes it due.
func (c *Channel) NextWork(now int64) int64 {
	if c.device.Len() > 0 || (c.host.Len() > 0 && c.fetching < maxFetchesInFlight) {
		return now + 1
	}
	return sim.Dormant
}

// HostBacklog returns commands posted but not yet fetched.
func (c *Channel) HostBacklog() int { return c.host.Len() }

// maxFetchesInFlight is the DMA read pipeline depth: the fetch engine
// keeps several batch reads outstanding to hide the PCIe latency.
const maxFetchesInFlight = 4

// TickDevice advances the device-side fetch engine: when commands are
// posted and the read pipeline has room, DMA-read a batch (PCIe
// bandwidth + latency apply).
func (c *Channel) TickDevice() {
	for c.fetching < maxFetchesInFlight && !c.host.Empty() {
		n := c.host.Len()
		if n > fetchBatch {
			n = fetchBatch
		}
		if c.device.Len()+n > QueueDepth {
			n = QueueDepth - c.device.Len()
			if n <= 0 {
				return // device queue full: backpressure to the host queue
			}
		}
		var b *cmdBatch
		if ln := len(c.cmdFree); ln > 0 {
			b = c.cmdFree[ln-1]
			c.cmdFree = c.cmdFree[:ln-1]
		} else {
			b = new(cmdBatch)
		}
		for i := 0; i < n; i++ {
			b.cmds[i], _ = c.host.Pop()
		}
		b.n = n
		c.fetching++
		done := c.pcie.TransferToDevice(int64(n) * c.cmdBytes)
		if c.trc != nil {
			c.traceDMA("cmd.fetch", c.k.Now(), done, n)
		}
		c.k.AtCall(done, c.cmdDoneFn, b)
	}
}

// PopCommand returns the next fetched command to the engine.
func (c *Channel) PopCommand() (Command, bool) { return c.device.Pop() }

// PeekCommand lets the engine inspect the next command without consuming
// it (backpressure: a command is only popped when the scheduler can take
// its event).
func (c *Channel) PeekCommand() (Command, bool) { return c.device.Peek() }

// DeviceBacklog returns fetched commands not yet consumed by the engine.
func (c *Channel) DeviceBacklog() int { return c.device.Len() }

// PushCompletions DMA-writes a batch of completions to the host queue
// and the software doorbell; they become host-visible after the PCIe
// transfer completes.
func (c *Channel) PushCompletions(comps []Completion) {
	if len(comps) == 0 {
		return
	}
	var b *compBatch
	if ln := len(c.compFree); ln > 0 {
		b = c.compFree[ln-1]
		c.compFree = c.compFree[:ln-1]
	} else {
		b = new(compBatch)
	}
	b.comps = append(b.comps, comps...)
	done := c.pcie.TransferToHost(int64(len(comps)) * CompletionBytes)
	if c.trc != nil {
		c.traceDMA("comp.dma", c.k.Now(), done, len(comps))
	}
	c.k.AtCall(done, c.compDoneFn, b)
}

// PopCompletion polls the completion queue (the software doorbell path:
// the library polls memory, §4.1.1).
func (c *Channel) PopCompletion() (Completion, bool) { return c.comps.Pop() }

// PendingCompletions returns host-visible completions not yet consumed.
func (c *Channel) PendingCompletions() int { return c.comps.Len() }
