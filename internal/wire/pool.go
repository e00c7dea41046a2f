package wire

import "sync"

// pktPool recycles Packet structs on the steady-state data path. The
// ownership rule is single-freer: whoever runs the parser over a TCP
// frame frees it, as the frame's last reader once payload bytes and
// header fields have been copied out — the engine's RX stage (and its
// RX-queue overrun drop) and stack.Endpoint.HandlePacket, the software
// substrate's one site. ARP and ICMP frames are never put back: their
// replies may alias the request's payload slice. Every other drop
// point — link loss, demux misses, full NIC queues, test harnesses —
// simply lets the garbage collector take the packet. That keeps the
// invariant checkable: no packet ever has two owners, and a pooled
// packet can never still be referenced.
var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// GetPacket returns a zeroed Packet, recycled when possible. Callers
// must overwrite every field they rely on (the generator copies a full
// template over it).
func GetPacket() *Packet {
	return pktPool.Get().(*Packet)
}

// PutPacket recycles a packet. The struct is cleared first — in
// particular Payload is dropped, so a reply that aliased the request's
// payload slice (ICMP echo) keeps sole ownership of the backing array.
// The packet's own payload slot is kept: it is part of the pooled
// allocation (see PayloadSlot) and gets overwritten by the next owner.
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	slot := p.payloadBuf
	*p = Packet{}
	p.payloadBuf = slot
	pktPool.Put(p)
}
