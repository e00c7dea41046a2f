package wire

import (
	"encoding/binary"
	"fmt"
)

// IPv4Header is a fixed-size (no options) IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      Addr
	Dst      Addr
	ECN      uint8 // RFC 3168 codepoint (low two TOS bits)
}

// DefaultTTL is the TTL FtEngine writes into generated packets.
const DefaultTTL = 64

// EncodeIPv4 writes the header into b (at least IPv4HeaderLen bytes),
// computing the header checksum, and returns IPv4HeaderLen.
func EncodeIPv4(b []byte, h *IPv4Header) int {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45        // version 4, IHL 5
	b[1] = h.ECN & 0x3 // DSCP zero + ECN codepoint
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], 0x4000) // DF, no fragmentation
	b[8] = h.TTL
	b[9] = h.Protocol
	binary.BigEndian.PutUint16(b[10:], 0) // checksum placeholder
	binary.BigEndian.PutUint32(b[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:], uint32(h.Dst))
	cs := Checksum(b[:IPv4HeaderLen], 0)
	binary.BigEndian.PutUint16(b[10:], cs)
	return IPv4HeaderLen
}

// DecodeIPv4 parses an IPv4 header from b, verifying version, length and
// header checksum. It returns the header and the header length in bytes.
func DecodeIPv4(b []byte) (IPv4Header, int, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4Header{}, 0, fmt.Errorf("wire: IPv4 header truncated: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4Header{}, 0, fmt.Errorf("wire: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || ihl > len(b) {
		return IPv4Header{}, 0, fmt.Errorf("wire: bad IHL %d", ihl)
	}
	if Checksum(b[:ihl], 0) != 0 {
		return IPv4Header{}, 0, fmt.Errorf("wire: IPv4 header checksum mismatch")
	}
	h := IPv4Header{
		ECN:      b[1] & 0x3,
		TotalLen: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:]),
		Src:      Addr(binary.BigEndian.Uint32(b[12:])),
		Dst:      Addr(binary.BigEndian.Uint32(b[16:])),
	}
	if int(h.TotalLen) < ihl {
		return IPv4Header{}, 0, fmt.Errorf("wire: IPv4 total length %d < header %d", h.TotalLen, ihl)
	}
	return h, ihl, nil
}
