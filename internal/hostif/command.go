// Package hostif models the software↔hardware interface of §4.1.1 and
// §4.6: per-thread command queues in hugepage DMA buffers (depth 1024,
// 16 B entries), MMIO doorbells with batching, completion queues with a
// software doorbell polled by the library, and a PCIe bandwidth/latency
// model through which every command, completion and payload byte must
// pass.
package hostif

import (
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// Op is a host-to-device command opcode.
type Op uint8

// Command opcodes (the socket API calls that map to 16 B commands).
const (
	OpConnect Op = iota
	OpListen
	OpSend // carries the absolute REQ pointer, not a length (§4.2.1)
	OpRecv // carries the application-consumed pointer
	OpClose
	OpAbort
)

// Command is one host→device queue entry. On the wire it is CommandBytes
// wide; the struct carries the decoded form.
type Command struct {
	Op   Op
	Flow flow.ID
	Ptr  seqnum.Value // send/recv pointer for OpSend/OpRecv

	// Connection setup fields (OpConnect/OpListen).
	RemoteAddr wire.Addr
	RemotePort uint16
	LocalPort  uint16
}

// CompKind is a device-to-host completion kind.
type CompKind uint8

// Completion kinds (ACKed-data and received-data pointers, §4.1.1, plus
// connection lifecycle).
const (
	CompEstablished CompKind = iota
	CompAcked                // send bytes up to Seq released
	CompDelivered            // in-order received data up to Seq available
	CompPeerClosed
	CompClosed
	CompReset
	CompAccepted // new passive connection (flow ID + local port)
)

// Completion is one device→host queue entry (16 B on the wire).
type Completion struct {
	Kind CompKind
	Flow flow.ID
	Seq  seqnum.Value
	Seq2 seqnum.Value // CompEstablished: the receive-stream anchor (IRS+1)
	Port uint16       // local port, correlates dials and listener dispatch
}

// Default queue geometry from the paper.
const (
	QueueDepth      = 1024
	CommandBytes16  = 16
	CommandBytes8   = 8 // the §6 optimization that lifts the PCIe ceiling
	CompletionBytes = 16
)
