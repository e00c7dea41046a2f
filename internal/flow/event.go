package flow

import (
	"fmt"

	"f4t/internal/seqnum"
)

// EventKind discriminates the three TCP event sources (§4.1.2 ①②③).
type EventKind uint8

// Event kinds.
const (
	EvUser    EventKind = iota // user request from the host interface
	EvRx                       // received packet, pre-processed by the RX parser
	EvTimeout                  // timer expiry
)

// Event is one TCP event routed through the scheduler to an FPC (or to
// the memory manager when the flow lives in DRAM). Fields are the
// *cumulative pointer* form: user requests carry the absolute REQ pointer,
// not a length (§4.2.1), which is what makes lossless accumulation work.
type Event struct {
	Kind EventKind
	Flow ID

	// User-request payload (EvUser).
	Ctl     uint8        // CtlOpen/CtlClose/CtlAbort bits
	Req     seqnum.Value // new send-request boundary
	HasReq  bool
	AppRead seqnum.Value // new application-consumed boundary (recv())
	HasRead bool

	// Received-packet payload (EvRx), as digested by the RX parser: the
	// parser has already merged out-of-order chunks, so RcvData is the new
	// in-order boundary, not a per-segment range.
	Ack       seqnum.Value
	HasAck    bool
	IsDupAck  bool // parser-detected pure duplicate ACK
	Wnd       uint32
	HasWnd    bool
	RcvData   seqnum.Value // new in-order received-data boundary
	HasData   bool
	RxFlags   uint8        // RxSYN/RxFIN/RxRST occurrence bits
	SynSeq    seqnum.Value // peer ISN, valid when RxSYN set
	FinSeq    seqnum.Value // sequence the peer's FIN occupies, valid when RxFIN set
	RstSeq    seqnum.Value // sequence the RST carries, valid when RxRST set
	RstAck    seqnum.Value // the RST's acknowledgment field, valid when RstHasAck
	RstHasAck bool         // the RST carried an ACK (validates resets in SYN-SENT)
	CE        bool         // data arrived CE-marked (RFC 3168 / DCTCP)
	ECE       bool         // ack carried the ECN-echo flag

	// AckNow asks for an immediate ACK even without an in-order data
	// advance: the RX parser sets it for out-of-window and out-of-order
	// arrivals so the peer sees duplicate ACKs and window updates. It
	// accumulates as a count so coalescing never erases the duplicate
	// ACKs fast retransmit depends on.
	AckNow bool

	// Timeout payload (EvTimeout).
	Timeouts uint8 // TORetrans/TOProbe/TODelAck/TOTimeWait bits

	// Whether this RX event is safe to coalesce with a previous one in the
	// scheduler's coalesce FIFOs: false when drops/reordering were seen, so
	// no information may be merged away (§4.4.1). User requests are always
	// coalescable.
	Coalescable bool
}

// String summarizes the event for diagnostics.
func (e Event) String() string {
	switch e.Kind {
	case EvUser:
		return fmt.Sprintf("user{flow=%d ctl=%03b req=%v/%t read=%v/%t}", e.Flow, e.Ctl, e.Req, e.HasReq, e.AppRead, e.HasRead)
	case EvRx:
		return fmt.Sprintf("rx{flow=%d ack=%v/%t data=%v/%t wnd=%d/%t fl=%03b dup=%t}",
			e.Flow, e.Ack, e.HasAck, e.RcvData, e.HasData, e.Wnd, e.HasWnd, e.RxFlags, e.IsDupAck)
	case EvTimeout:
		return fmt.Sprintf("to{flow=%d bits=%04b}", e.Flow, e.Timeouts)
	}
	return "event{?}"
}

// Valid-bit positions in EventRow.Valid.
const (
	VReq uint16 = 1 << iota
	VRead
	VAck
	VWnd
	VData
	VRxFlags
	VTimeouts
	VCtl
	VDupAck
	VAckNow
	VCE
	VECE
)

// EventRow is one entry of the FPC event table: the accumulated,
// fixed-size image of all events handled for a flow since the last TCB
// construction (§4.2.1). Each field carries a valid bit; construction
// overlays valid fields onto the TCB-table row and clears the bits
// (§4.2.3).
type EventRow struct {
	Valid uint16

	Req       seqnum.Value // latest user send pointer
	AppRead   seqnum.Value // latest user consumed pointer
	Ack       seqnum.Value // latest cumulative ACK from the peer
	Wnd       uint32       // latest advertised window from the peer
	RcvData   seqnum.Value // latest in-order received-data boundary
	RxFlags   uint8        // OR of RxSYN/RxFIN/RxRST since last construction
	SynSeq    seqnum.Value
	FinSeq    seqnum.Value
	RstSeq    seqnum.Value // latest RST's sequence number
	RstAck    seqnum.Value // latest RST's ack field
	RstHasAck bool
	Timeouts  uint8  // OR of timeout occurrence bits
	Ctl       uint8  // OR of control-request bits
	DupAckInc uint16 // duplicate-ACK increments (the single-cycle RMW, §4.2.1)
	AckNowCnt uint8  // immediate-ACK requests (saturating count)
	CEInc     uint16 // CE-marked data packets seen (counter, like dup-ACKs)
	ECEInc    uint16 // ECN-echo acks seen
}

// Accumulate folds one event into the row using the paper's rules:
// cumulative pointers overwrite (the newest value subsumes older ones),
// occurrence flags OR, and duplicate ACKs increment a counter. A fresh
// advancing ACK resets the duplicate counter, mirroring what an atomic
// sequential handler would leave behind.
func (r *EventRow) Accumulate(e *Event) {
	switch e.Kind {
	case EvUser:
		if e.HasReq {
			r.Req = e.Req
			r.Valid |= VReq
		}
		if e.HasRead {
			r.AppRead = e.AppRead
			r.Valid |= VRead
		}
		if e.Ctl != 0 {
			r.Ctl |= e.Ctl
			r.Valid |= VCtl
		}
	case EvRx:
		if e.IsDupAck {
			r.DupAckInc++
			r.Valid |= VDupAck
		} else if e.HasAck {
			// An advancing ACK supersedes earlier duplicate counts, exactly
			// as sequential atomic processing would.
			if r.Valid&VAck == 0 || e.Ack.GreaterThan(r.Ack) {
				r.Ack = e.Ack
				r.Valid |= VAck
				r.DupAckInc = 0
				r.Valid &^= VDupAck
			}
		}
		if e.HasWnd {
			r.Wnd = e.Wnd
			r.Valid |= VWnd
		}
		if e.HasData {
			if r.Valid&VData == 0 || e.RcvData.GreaterThan(r.RcvData) {
				r.RcvData = e.RcvData
				r.Valid |= VData
			}
		}
		if e.RxFlags != 0 {
			r.RxFlags |= e.RxFlags
			if e.RxFlags&RxSYN != 0 {
				r.SynSeq = e.SynSeq
			}
			if e.RxFlags&RxFIN != 0 {
				r.FinSeq = e.FinSeq
			}
			if e.RxFlags&RxRST != 0 {
				r.RstSeq = e.RstSeq
				r.RstAck = e.RstAck
				r.RstHasAck = e.RstHasAck
			}
			r.Valid |= VRxFlags
		}
		if e.AckNow {
			if r.AckNowCnt < 255 {
				r.AckNowCnt++
			}
			r.Valid |= VAckNow
		}
		if e.CE {
			r.CEInc++
			r.Valid |= VCE
		}
		if e.ECE {
			r.ECEInc++
			r.Valid |= VECE
		}
	case EvTimeout:
		r.Timeouts |= e.Timeouts
		r.Valid |= VTimeouts
	}
}

// MergeInto overlays the row's valid fields onto the TCB's event-input
// group (the TCB manager's construction step, §4.2.3) and clears the row.
func (r *EventRow) MergeInto(t *TCB) {
	in := &t.In
	if r.Valid&VReq != 0 {
		in.Req = r.Req
		in.Valid |= VReq
	}
	if r.Valid&VRead != 0 {
		in.AppRead = r.AppRead
		in.Valid |= VRead
	}
	if r.Valid&VAck != 0 {
		if in.Valid&VAck == 0 || r.Ack.GreaterThan(in.Ack) {
			in.Ack = r.Ack
			// The advancing ACK supersedes duplicate counts accumulated
			// before it (this row's own dup count, if any, postdates its
			// ACK and is added below).
			in.DupAckInc = 0
			in.Valid &^= VDupAck
		}
		in.Valid |= VAck
	}
	if r.Valid&VWnd != 0 {
		in.Wnd = r.Wnd
		in.Valid |= VWnd
	}
	if r.Valid&VData != 0 {
		if in.Valid&VData == 0 || r.RcvData.GreaterThan(in.RcvData) {
			in.RcvData = r.RcvData
		}
		in.Valid |= VData
	}
	if r.Valid&VRxFlags != 0 {
		in.RxFlags |= r.RxFlags
		if r.RxFlags&RxSYN != 0 {
			in.SynSeq = r.SynSeq
		}
		if r.RxFlags&RxFIN != 0 {
			in.FinSeq = r.FinSeq
		}
		if r.RxFlags&RxRST != 0 {
			in.RstSeq = r.RstSeq
			in.RstAck = r.RstAck
			in.RstHasAck = r.RstHasAck
		}
		in.Valid |= VRxFlags
	}
	if r.Valid&VTimeouts != 0 {
		in.Timeouts |= r.Timeouts
		in.Valid |= VTimeouts
	}
	if r.Valid&VCtl != 0 {
		in.Ctl |= r.Ctl
		in.Valid |= VCtl
	}
	if r.Valid&VDupAck != 0 {
		in.DupAckInc += r.DupAckInc
		in.Valid |= VDupAck
	}
	if r.Valid&VAckNow != 0 {
		if int(in.AckNowCnt)+int(r.AckNowCnt) > 255 {
			in.AckNowCnt = 255
		} else {
			in.AckNowCnt += r.AckNowCnt
		}
		in.Valid |= VAckNow
	}
	if r.Valid&VCE != 0 {
		in.CEInc += r.CEInc
		in.Valid |= VCE
	}
	if r.Valid&VECE != 0 {
		in.ECEInc += r.ECEInc
		in.Valid |= VECE
	}
	*r = EventRow{}
}

// Clear resets the row to empty.
func (r *EventRow) Clear() { *r = EventRow{} }

// Empty reports whether no valid fields are pending.
func (r *EventRow) Empty() bool { return r.Valid == 0 }
