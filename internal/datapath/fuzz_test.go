package datapath

import (
	"encoding/binary"
	"testing"

	"f4t/internal/seqnum"
)

// FuzzReassembler drives a Reassembler with arbitrary segments — each
// six script bytes give an offset from the in-order boundary (negative
// offsets retransmit old data), a length and a window — and checks
// RcvNxt and PendingBytes after every insert against a reference that
// marks each received byte in a bitmap.
func FuzzReassembler(f *testing.F) {
	f.Add(uint32(0), []byte{0, 0, 100, 0, 0, 16})                                 // in order
	f.Add(uint32(0xFFFFFF00), []byte{200, 0, 100, 0, 0, 16, 0, 0, 200, 0, 0, 16}) // gap filled, across the wrap
	f.Add(uint32(7), []byte{10, 0, 5, 0, 8, 0, 0, 0, 20, 0, 8, 0})                // clipped by the window
	f.Fuzz(func(t *testing.T, base uint32, script []byte) {
		r := NewReassembler(seqnum.Value(base))
		var have []bool // have[i]: byte base+i received
		nxt, pending := 0, 0
		for ops := 0; len(script) >= 6 && ops < 512; ops++ {
			off := int(int16(binary.LittleEndian.Uint16(script)))
			length := int(binary.LittleEndian.Uint16(script[2:]) % 4096)
			wnd := int(binary.LittleEndian.Uint16(script[4:]) % 8192)
			script = script[6:]
			start := nxt + off
			r.Insert(seqnum.Value(base).Add(seqnum.Size(start)), length, uint32(wnd))

			for len(have) < nxt+wnd+1 {
				have = append(have, false)
			}
			for b := max(start, nxt); b < min(start+length, nxt+wnd); b++ {
				if !have[b] {
					have[b] = true
					pending++
				}
			}
			for have[nxt] {
				nxt++
				pending--
			}
			if got, want := r.RcvNxt(), seqnum.Value(base).Add(seqnum.Size(nxt)); got != want {
				t.Fatalf("op %d: RcvNxt %d, want %d", ops, got, want)
			}
			if got := r.PendingBytes(); got != pending {
				t.Fatalf("op %d: PendingBytes %d, want %d", ops, got, pending)
			}
		}
	})
}
