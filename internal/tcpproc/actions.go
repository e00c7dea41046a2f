// Package tcpproc is the stateless TCP processing function — the body of
// the flow processing unit (§4.2.2). Given a TCB whose event-input group
// has been merged by the TCB manager, Process reacts to everything that
// accumulated (acks, received data, window updates, user requests,
// timeouts) in one pass and emits segments, host notifications and timer
// deadlines. It holds no state of its own: all inputs and outputs live in
// the TCB, which is what lets the hardware FPU pipeline it fully.
//
// The same function drives both substrates: the FtEngine FPU model calls
// it once per merged TCB, and the software baseline stack calls it once
// per event (no accumulation), charging CPU cycles for each call.
package tcpproc

import (
	"f4t/internal/flow"
	"f4t/internal/seqnum"
)

// NoteKind discriminates host notifications emitted by processing.
type NoteKind uint8

// Host notification kinds (delivered as 16 B completion commands, §4.1.1).
const (
	// NoteEstablished: the connection reached ESTABLISHED (connect done,
	// or a passive connection is ready to accept).
	NoteEstablished NoteKind = iota
	// NoteDataAcked: the peer has acknowledged bytes up to Seq; the host
	// may release send-buffer space.
	NoteDataAcked
	// NoteDataDelivered: in-order data up to Seq is available to recv().
	NoteDataDelivered
	// NotePeerClosed: the peer's FIN arrived in order (EOF after Seq).
	NotePeerClosed
	// NoteClosed: the connection fully terminated; flow state may be freed.
	NoteClosed
	// NoteReset: the connection was reset by the peer.
	NoteReset
)

// Note is one host notification.
type Note struct {
	Kind NoteKind
	Flow flow.ID
	Seq  seqnum.Value // meaning depends on Kind (ack/deliver boundary)
}

// SendOp asks the packet generator (§4.1.2 TX data path) to emit one
// logical transfer; the generator splits payloads larger than the MSS.
type SendOp struct {
	Flow       flow.ID
	Seq        seqnum.Value
	Len        uint32 // payload bytes; 0 for pure control segments
	Flags      uint8  // wire.Flag* bits
	Ack        seqnum.Value
	Wnd        uint32 // advertised window in bytes (generator encodes/scales)
	Retransmit bool
}

// Actions collects everything one processing pass produced. The caller
// owns the value and resets it between passes; slices are reused.
type Actions struct {
	Segs     []SendOp
	Notes    []Note
	FreeFlow bool // the flow reached CLOSED and its state can be released
	// OowRstDropped reports that an inbound RST failed sequence
	// validation (RFC 793 §3.4 / RFC 5961) and was discarded instead of
	// aborting the flow. Callers count it in telemetry.
	OowRstDropped bool
}

// Reset clears the action lists without releasing capacity.
func (a *Actions) Reset() {
	a.Segs = a.Segs[:0]
	a.Notes = a.Notes[:0]
	a.FreeFlow = false
	a.OowRstDropped = false
}

func (a *Actions) note(k NoteKind, f flow.ID, s seqnum.Value) {
	a.Notes = append(a.Notes, Note{Kind: k, Flow: f, Seq: s})
}

// Config carries the protocol parameters of one endpoint's TCP stack.
type Config struct {
	MSS         uint32 // maximum segment size (payload bytes), paper: 1460
	RcvBuf      uint32 // receive buffer bytes, paper: 512 KB
	WndScale    uint8  // window scale shift applied to the 16-bit field
	InitialRTO  int64  // ns, before the first RTT sample
	MinRTO      int64  // ns floor for the computed RTO
	MaxRTO      int64  // ns ceiling
	ProbeIvl    int64  // ns between zero-window persist probes
	DelAckTO    int64  // ns delayed-ACK flush bound
	TimeWaitDur int64  // ns spent in TIME_WAIT (2*MSL)

	// Keepalive (RFC 1122 §4.2.3.6): after KeepaliveIdle ns of silence an
	// established connection sends probes every KeepaliveIvl; after
	// KeepaliveCnt unanswered probes it is reset. KeepaliveIdle = 0
	// disables the mechanism (the default, as on most datacenter setups).
	KeepaliveIdle int64
	KeepaliveIvl  int64
	KeepaliveCnt  uint8

	// ECN enables RFC 3168 negotiation-free ECN handling: data packets
	// are sent ECT-capable, CE marks are echoed on acks, and the echo
	// fraction is accumulated per window for ECN-aware congestion
	// control (DCTCP). Off by default.
	ECN bool
}

// DefaultConfig returns datacenter-tuned protocol parameters matching the
// paper's evaluation setup (MSS 1460, 512 KB buffers, §5).
func DefaultConfig() Config {
	return Config{
		MSS:         1460,
		RcvBuf:      512 * 1024,
		WndScale:    5,           // up to 2 MB advertised
		InitialRTO:  10_000_000,  // 10 ms
		MinRTO:      5_000_000,   // 5 ms (datacenter-tuned)
		MaxRTO:      500_000_000, // 500 ms
		ProbeIvl:    10_000_000,  // 10 ms
		DelAckTO:    500_000,     // 500 us
		TimeWaitDur: 10_000_000,  // 10 ms (scaled-down 2*MSL for simulation)
	}
}
