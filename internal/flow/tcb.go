// Package flow defines the per-flow transmission control block (TCB) and
// the three TCP event kinds FtEngine processes — user requests, received
// packets and timeouts (§4.2) — together with the event-accumulation rules
// of the event handler (§4.2.1): cumulative pointers overwrite, flags OR,
// and duplicate-ACK counting increments.
package flow

import (
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// ID is the global flow identifier used throughout F4T (§4.1.2).
type ID uint32

// NoFlow marks "no flow" in tables that store IDs.
const NoFlow = ID(0xFFFFFFFF)

// State is the TCP connection state (RFC 793).
type State uint8

// TCP connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateClosing
	StateTimeWait
	StateCloseWait
	StateLastAck
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSING", "TIME_WAIT", "CLOSE_WAIT", "LAST_ACK",
}

// String returns the RFC-style state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "UNKNOWN"
}

// Timeout event bits (the timer module's event kinds).
const (
	TORetrans   uint8 = 1 << 0 // retransmission timeout
	TOProbe     uint8 = 1 << 1 // zero-window persist probe
	TODelAck    uint8 = 1 << 2 // delayed-ACK timer
	TOTimeWait  uint8 = 1 << 3 // TIME_WAIT expiry
	TOKeepalive uint8 = 1 << 4 // idle-connection keepalive probe
)

// Control-request bits carried by user-request events.
const (
	CtlOpen  uint8 = 1 << 0 // connect(): active open
	CtlClose uint8 = 1 << 1 // close(): send FIN after pending data
	CtlAbort uint8 = 1 << 2 // abort: send RST, drop state
)

// Received-packet flag bits accumulated by the event handler. Only the
// *occurrence* matters (§4.2.1), so they OR together.
const (
	RxSYN uint8 = 1 << 0
	RxFIN uint8 = 1 << 1
	RxRST uint8 = 1 << 2
)

// CCVarCount is the number of spare TCB words reserved for congestion
// control algorithm state. The paper notes that implementing CUBIC needed
// only "adding some entries in the TCB" (§5.4); these are those entries.
// BBR is the widest program so far (bandwidth filter, min-RTT filter,
// delivery-rate epoch, mode word, saved window) and sets the count.
const CCVarCount = 10

// TCB holds all transmission state for one flow. Group (A) fields are
// owned by the flow processing unit (protocol state); group (B) fields are
// the merged event inputs written by the event handler and consumed by the
// next FPU pass.
type TCB struct {
	// Identity.
	FlowID ID
	Tuple  wire.FourTuple
	State  State

	// --- Group A: protocol state owned by the FPU ---

	// Transmit byte-stream pointers (sequence space).
	ISS          seqnum.Value // initial send sequence
	SndUna       seqnum.Value // oldest unacknowledged byte
	SndNxt       seqnum.Value // next byte to send
	Req          seqnum.Value // user send-request boundary (paper's REQ)
	SndWnd       uint32       // peer's advertised window (bytes)
	FinSent      bool         // our FIN occupies sequence Req (after data)
	FinSeq       seqnum.Value // sequence number our FIN occupies, valid when FinSent
	ClosePending bool         // app called close(); emit FIN once all data is sent

	// Receive byte-stream pointers.
	IRS          seqnum.Value // initial receive sequence
	RcvNxt       seqnum.Value // next in-order byte expected
	AppRead      seqnum.Value // boundary consumed by the application (recv())
	RcvBuf       uint32       // receive buffer size (advertised window base)
	RcvFin       bool         // peer's FIN has been received in order
	PeerFinKnown bool         // a FIN was seen (possibly out of order)
	PeerFinSeq   seqnum.Value // sequence the peer's FIN occupies
	DeliveredTo  seqnum.Value // boundary already announced to the app

	// Congestion control.
	Cwnd       uint32 // congestion window (bytes)
	Ssthresh   uint32
	DupAcks    uint16
	InRecovery bool
	RecoverSeq seqnum.Value // NewReno recovery point (SndNxt at loss)
	CCVars     [CCVarCount]uint64

	// RTT estimation (nanoseconds) and retransmission state.
	SRTT      int64
	RTTVar    int64
	RTO       int64        // current retransmission timeout (ns)
	Backoff   uint8        // exponential backoff shift applied to RTO
	RTTSeq    seqnum.Value // sequence being timed for an RTT sample
	RTTSentAt int64        // ns timestamp when RTTSeq was sent
	RTTTiming bool         // an RTT sample is in flight

	// Timer deadlines in ns (0 = disarmed). The FPU arms/disarms these;
	// the timer module fires Timeout events when they expire.
	RetransAt   int64
	ProbeAt     int64
	DelAckAt    int64
	TimeWaitAt  int64
	KeepaliveAt int64

	// Keepalive probes sent without any response (RFC 1122 §4.2.3.6).
	KeepaliveMisses uint8

	// Host notification high-water marks (what the host has been told).
	AckedToHost     seqnum.Value // send-buffer space released to the app
	EstablishedSent bool
	ClosedSent      bool

	// ECN state (RFC 3168 / DCTCP). The receiver echoes congestion marks
	// on its acks; the sender accumulates the echo fraction per window
	// for the congestion-control program to consume.
	EcnEchoPending bool   // receiver: CE seen, echo ECE on the next acks
	EceBytes       uint64 // sender: acked bytes covered by ECE feedback
	AckedBytes     uint64 // sender: total acked bytes in the current window

	// Delayed-ACK bookkeeping (RFC 1122 §4.2.3.2).
	AckPending  bool         // an ACK is owed for received data
	LastAckSent seqnum.Value // receive boundary last advertised to the peer

	// --- Group B: merged event inputs (written by the event handler) ---
	In EventRow

	// --- Scheduling metadata (engine bookkeeping, not protocol) ---
	LastActive int64 // cycle of last event, for coldest-flow eviction
	EvictFlag  bool  // set when the scheduler requested eviction (§4.3.2)
	SwapTo     int8  // FPC holding the slot reservation while a DRAM→FPC swap-in's read is in flight
}

// SndBufBytes returns the bytes of app data queued but not yet sent.
func (t *TCB) SndBufBytes() uint32 {
	return uint32(t.Req.DistanceFrom(t.SndNxt))
}

// InFlight returns the bytes sent but not yet acknowledged.
func (t *TCB) InFlight() uint32 {
	return uint32(t.SndNxt.DistanceFrom(t.SndUna))
}

// AdvertisedWindow computes the receive window to advertise: buffer space
// not yet occupied by undelivered in-order data.
func (t *TCB) AdvertisedWindow() uint32 {
	used := uint32(t.RcvNxt.DistanceFrom(t.AppRead))
	if used >= t.RcvBuf {
		return 0
	}
	return t.RcvBuf - used
}

// SendLimit returns the right edge of what congestion + flow control allow
// us to send: SndUna + min(cwnd, sndwnd).
func (t *TCB) SendLimit() seqnum.Value {
	w := t.Cwnd
	if t.SndWnd < w {
		w = t.SndWnd
	}
	return t.SndUna.Add(seqnum.Size(w))
}

// Closedish reports whether the connection has fully terminated.
func (t *TCB) Closedish() bool {
	return t.State == StateClosed || t.State == StateTimeWait
}
