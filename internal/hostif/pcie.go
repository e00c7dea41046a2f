package hostif

import "f4t/internal/sim"

// PCIe models the Gen3 x16 link between host memory and FtEngine: a
// serial byte resource per direction plus a fixed transaction latency.
// Fig 9 and Fig 16a are bounded by this resource (§5.1, §6).
type PCIe struct {
	k        *sim.Kernel
	toDevice *sim.ByteRate // host memory → device (command fetch, TX payload DMA)
	toHost   *sim.ByteRate // device → host memory (completions, RX payload DMA)
	latency  int64         // cycles per transaction (one direction)

	// Per-TLP overhead bytes charged on top of every discrete transfer —
	// header/framing of the PCIe transaction layer.
	tlpOverhead int64

	BytesToDevice int64
	BytesToHost   int64

	// TLP accounting: discrete transfers per direction and the wire bytes
	// they occupied including the per-TLP overhead. Together with the
	// payload byte counts these expose how much of the link each
	// direction's framing overhead eats (the §4.6 batching argument).
	TLPsToDevice      int64
	TLPsToHost        int64
	WireBytesToDevice int64
	WireBytesToHost   int64
}

// PCIeConfig parameterizes the link.
type PCIeConfig struct {
	GBps        int64 // effective per-direction bandwidth (GB/s)
	LatencyNS   int64 // one-way transaction latency
	TLPOverhead int64 // bytes charged per discrete transfer
}

// DefaultPCIe matches a Gen3 x16 slot: ~14 GB/s effective per direction,
// ~450 ns transaction latency [Neugebauer et al., SIGCOMM'18].
func DefaultPCIe() PCIeConfig {
	return PCIeConfig{GBps: 14, LatencyNS: 450, TLPOverhead: 24}
}

// NewPCIe builds the link model.
func NewPCIe(k *sim.Kernel, cfg PCIeConfig) *PCIe {
	return &PCIe{
		k:           k,
		toDevice:    sim.GBpsRate(cfg.GBps),
		toHost:      sim.GBpsRate(cfg.GBps),
		latency:     sim.NSToCycles(cfg.LatencyNS),
		tlpOverhead: cfg.TLPOverhead,
	}
}

// TransferToDevice reserves a host→device transfer of n bytes and returns
// the completion cycle.
func (p *PCIe) TransferToDevice(n int64) int64 {
	p.BytesToDevice += n
	p.TLPsToDevice++
	p.WireBytesToDevice += n + p.tlpOverhead
	return p.toDevice.Reserve(p.k.Now(), n+p.tlpOverhead) + p.latency
}

// TransferToHost reserves a device→host transfer of n bytes and returns
// the completion cycle.
func (p *PCIe) TransferToHost(n int64) int64 {
	p.BytesToHost += n
	p.TLPsToHost++
	p.WireBytesToHost += n + p.tlpOverhead
	return p.toHost.Reserve(p.k.Now(), n+p.tlpOverhead) + p.latency
}

// BacklogToDevice returns queued host→device cycles (congestion signal).
func (p *PCIe) BacklogToDevice() int64 { return p.toDevice.Backlog(p.k.Now()) }

// BacklogToHost returns queued device→host cycles.
func (p *PCIe) BacklogToHost() int64 { return p.toHost.Backlog(p.k.Now()) }
