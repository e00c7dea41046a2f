package sim

// ByteRate models a serial resource with fixed byte bandwidth — an
// Ethernet link, a PCIe direction, or a DRAM channel. It answers "at which
// cycle will a transfer of n bytes that starts now finish?", keeping the
// resource busy in between so back-to-back transfers serialize.
//
// Bandwidth is expressed in bytes per cycle as a rational num/den so that
// rates like 100 Gbps (50 B per 4 ns cycle) or 38 GB/s (152 B/cycle) are
// exact.
type ByteRate struct {
	num, den int64 // bytes per cycle = num/den
	freeAt   int64 // first cycle at which the resource is idle
	busy     int64 // total busy cycles accumulated (for utilization stats)
}

// NewByteRate returns a rate limiter delivering num/den bytes per cycle.
func NewByteRate(num, den int64) *ByteRate {
	if num <= 0 || den <= 0 {
		panic("sim: ByteRate requires positive num/den")
	}
	return &ByteRate{num: num, den: den}
}

// GbpsRate returns a ByteRate for a link of the given gigabits per second.
// 100 Gbps = 12.5 GB/s = 50 bytes per 4 ns cycle.
func GbpsRate(gbps int64) *ByteRate {
	// bytes/cycle = gbps * 1e9 / 8 [B/s] * 4e-9 [s/cycle] = gbps / 2.
	return NewByteRate(gbps, 2)
}

// GBpsRate returns a ByteRate for a memory channel of the given gigabytes
// per second. 38 GB/s = 152 bytes per 4 ns cycle.
func GBpsRate(gbytes int64) *ByteRate {
	return NewByteRate(gbytes*4, 1)
}

// CyclesFor returns how many cycles a transfer of n bytes occupies the
// resource (at least 1 for n > 0).
func (b *ByteRate) CyclesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	c := (n*b.den + b.num - 1) / b.num
	if c < 1 {
		c = 1
	}
	return c
}

// Reserve books a transfer of n bytes starting no earlier than now and
// returns the cycle at which it completes. Transfers serialize: if the
// resource is busy, the transfer queues behind it.
func (b *ByteRate) Reserve(now, n int64) int64 {
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	dur := b.CyclesFor(n)
	b.freeAt = start + dur
	b.busy += dur
	return b.freeAt
}

// Backlog returns how many cycles of already-reserved work remain at the
// given cycle. Zero means the resource is idle.
func (b *ByteRate) Backlog(now int64) int64 {
	if b.freeAt <= now {
		return 0
	}
	return b.freeAt - now
}

// FreeAt returns the first cycle at which the resource is idle. It only
// moves later, except through Reset.
func (b *ByteRate) FreeAt() int64 { return b.freeAt }

// BusyCycles returns the total number of cycles the resource has been
// reserved for since creation.
func (b *ByteRate) BusyCycles() int64 { return b.busy }

// Reset clears all reservations and accounting.
func (b *ByteRate) Reset() { b.freeAt, b.busy = 0, 0 }
