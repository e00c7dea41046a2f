// Package pcap captures frames from the simulated network into pcapng
// files that Wireshark/tshark open directly. Taps hook the decision
// points of netsim elements (pipe sends, router-port dequeues, drops,
// CE marks) and record kernel-cycle-derived nanosecond timestamps, so
// a capture is as deterministic as the simulation that produced it:
// the same seed yields a byte-identical file.
//
// The format is pcapng (the current libpcap container): one Section
// Header Block, one Interface Description Block per tap point (named,
// nanosecond resolution), and one Enhanced Packet Block per frame with
// the tap's annotations (drop cause, ECN mark, reorder, duplicate)
// attached as a packet comment.
package pcap

import (
	"bufio"
	"encoding/binary"
	"io"
)

// pcapng block type codes.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006

	byteOrderMagic = 0x1A2B3C4D
	linkEthernet   = 1

	optEndOfOpt = 0
	optComment  = 1
	optIfName   = 2
	optIfTsRes  = 9
)

// writer emits pcapng blocks. All multi-byte fields are little-endian
// (the byte-order magic tells readers which was used).
type writer struct {
	w   *bufio.Writer
	err error
	buf []byte
}

func newWriter(w io.Writer) *writer {
	pw := &writer{w: bufio.NewWriter(w)}
	pw.sectionHeader()
	return pw
}

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// option appends one option record (code, length, value, pad-to-4).
func (w *writer) option(code uint16, val []byte) {
	w.u16(code)
	w.u16(uint16(len(val)))
	w.buf = append(w.buf, val...)
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// flushBlock writes the staged block body wrapped with its type and
// total-length fields (the trailing copy lets readers walk backwards).
func (w *writer) flushBlock(blockType uint32) {
	if w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	total := uint32(len(w.buf) + 12)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], blockType)
	binary.LittleEndian.PutUint32(hdr[4:], total)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
	}
	if _, err := w.w.Write(w.buf); err != nil && w.err == nil {
		w.err = err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], total)
	if _, err := w.w.Write(tail[:]); err != nil && w.err == nil {
		w.err = err
	}
	w.buf = w.buf[:0]
}

// sectionHeader emits the SHB that opens the (single) section.
func (w *writer) sectionHeader() {
	w.u32(byteOrderMagic)
	w.u16(1)                  // version major
	w.u16(0)                  // version minor
	w.u64(0xFFFFFFFFFFFFFFFF) // section length unknown
	w.flushBlock(blockSHB)
}

// interfaceBlock emits one IDB: Ethernet link type, nanosecond
// timestamp resolution, and the tap's name. Interfaces are numbered in
// emission order starting at 0.
func (w *writer) interfaceBlock(name string) {
	w.u16(linkEthernet)
	w.u16(0) // reserved
	w.u32(0) // snaplen: unlimited
	if name != "" {
		w.option(optIfName, []byte(name))
	}
	w.option(optIfTsRes, []byte{9}) // 10^-9 s
	w.option(optEndOfOpt, nil)
	w.flushBlock(blockIDB)
}

// packetBlock emits one EPB for a captured frame.
func (w *writer) packetBlock(ifIdx uint32, tsNS int64, frame []byte, comment string) {
	w.u32(ifIdx)
	ts := uint64(tsNS)
	w.u32(uint32(ts >> 32))
	w.u32(uint32(ts))
	w.u32(uint32(len(frame)))
	w.u32(uint32(len(frame)))
	w.buf = append(w.buf, frame...)
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
	if comment != "" {
		w.option(optComment, []byte(comment))
		w.option(optEndOfOpt, nil)
	}
	w.flushBlock(blockEPB)
}

func (w *writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
