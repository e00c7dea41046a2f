package conformance

import (
	"fmt"
	"unsafe"

	"f4t/internal/cc"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// Violation is one invariant breach, attributed to an endpoint and flow
// at the simulation cycle it was observed.
type Violation struct {
	Invariant string
	Endpoint  string
	Flow      flow.ID
	Cycle     int64
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s flow=%d cycle=%d: %s",
		v.Endpoint, v.Invariant, v.Flow, v.Cycle, v.Detail)
}

// legalNext[prev][cur] reports whether observing state cur after state
// prev is consistent with the RFC 793 transition diagram, allowing for
// sampling gaps: cur must be reachable from prev WITHOUT passing through
// CLOSED, because a flow that reaches CLOSED is freed and cannot
// silently re-emerge under the same identity (identity changes reset the
// tracker instead). Reaching CLOSED itself is always legal — abort tears
// down from any state.
var legalNext [flow.StateLastAck + 1][flow.StateLastAck + 1]bool

func init() {
	direct := map[flow.State][]flow.State{
		flow.StateClosed:      {flow.StateListen, flow.StateSynSent},
		flow.StateListen:      {flow.StateSynRcvd},
		flow.StateSynSent:     {flow.StateSynRcvd, flow.StateEstablished},
		flow.StateSynRcvd:     {flow.StateEstablished, flow.StateFinWait1},
		flow.StateEstablished: {flow.StateFinWait1, flow.StateCloseWait},
		flow.StateFinWait1:    {flow.StateFinWait2, flow.StateClosing, flow.StateTimeWait},
		flow.StateFinWait2:    {flow.StateTimeWait},
		flow.StateClosing:     {flow.StateTimeWait},
		flow.StateTimeWait:    {},
		flow.StateCloseWait:   {flow.StateLastAck},
		flow.StateLastAck:     {},
	}
	for s := flow.StateClosed; s <= flow.StateLastAck; s++ {
		// BFS from s over the non-CLOSED subgraph.
		reach := map[flow.State]bool{s: true}
		queue := []flow.State{s}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur == flow.StateClosed && cur != s {
				continue // don't traverse through a freed flow
			}
			for _, nxt := range direct[cur] {
				if !reach[nxt] {
					reach[nxt] = true
					queue = append(queue, nxt)
				}
			}
		}
		for t := flow.StateClosed; t <= flow.StateLastAck; t++ {
			legalNext[s][t] = reach[t] || t == flow.StateClosed
		}
	}
}

// snap is the per-flow state the tracker compares successive samples
// against. tuple and iss identify the connection incarnation.
type snap struct {
	tuple       wire.FourTuple
	iss         seqnum.Value
	state       flow.State
	sndUna      seqnum.Value
	rcvNxt      seqnum.Value
	deliveredTo seqnum.Value
	backoff     uint8
	ssthresh    uint32
}

// ccActive reports whether a flow's congestion state is live: the
// handshake has run the program's Init and the flow still owns its send
// machinery. Pre-established states are excluded (a TCB sampled in
// LISTEN or mid-handshake may predate Init), as are CLOSED and
// TIME_WAIT, whose congestion state is dead weight awaiting release.
func ccActive(st flow.State) bool {
	switch st {
	case flow.StateEstablished, flow.StateFinWait1, flow.StateFinWait2,
		flow.StateClosing, flow.StateCloseWait, flow.StateLastAck:
		return true
	}
	return false
}

// tracker checks protocol invariants over a stream of TCB observations
// from one endpoint. Flow IDs are reused (both substrates recycle them,
// most recently freed first), and a new connection may reuse its
// predecessor's tuple too, so an incarnation is the (tuple, ISS) pair: a
// change of either resets that flow's history. alg and mss parameterize
// the congestion-control invariants: which program the endpoint runs
// decides what its Ssthresh is allowed to do.
type tracker struct {
	endpoint string
	alg      string
	mss      uint32
	prev     map[flow.ID]snap
	sink     func(Violation)
	reported map[reportKey]bool // dedup: one report per (incarnation, invariant)

	// passSeen maps CCVars base addresses to flow IDs within one
	// VisitTCBs pass (beginPass resets it). Two live flows resolving to
	// the same CCVars block means the flat TCB arena handed one
	// congestion state to two connections.
	passSeen map[uintptr]flow.ID
}

func newTracker(endpoint, alg string, mss uint32, sink func(Violation)) *tracker {
	return &tracker{
		endpoint: endpoint,
		alg:      alg,
		mss:      mss,
		prev:     make(map[flow.ID]snap),
		sink:     sink,
		reported: make(map[reportKey]bool),
	}
}

// reportKey names one invariant on one incarnation: the same rule the
// tracker uses for prev, so a recycled ID reports its own violations.
type reportKey struct {
	id        flow.ID
	tuple     wire.FourTuple
	iss       seqnum.Value
	invariant string
}

// beginPass starts a new aliasing-detection window. Call once before
// each VisitTCBs sweep; observations between calls must come from
// distinct flows.
func (tr *tracker) beginPass() {
	tr.passSeen = make(map[uintptr]flow.ID, len(tr.passSeen))
}

func (tr *tracker) report(t *flow.TCB, cycle int64, invariant, detail string) {
	key := reportKey{t.FlowID, t.Tuple, t.ISS, invariant}
	if tr.reported[key] {
		return
	}
	tr.reported[key] = true
	tr.sink(Violation{
		Invariant: invariant, Endpoint: tr.endpoint,
		Flow: t.FlowID, Cycle: cycle, Detail: detail,
	})
}

// observe checks one TCB sample against the intra-sample invariants and
// against the flow's previous sample.
func (tr *tracker) observe(t *flow.TCB, cycle int64) {
	// Intra-sample: the send stream's pointers must stay ordered…
	if t.SndUna.GreaterThan(t.SndNxt) {
		tr.report(t, cycle, "snd-una-beyond-nxt",
			fmt.Sprintf("SndUna=%d > SndNxt=%d", t.SndUna, t.SndNxt))
	}
	// …the host must never be told about bytes not yet received in
	// order…
	if t.DeliveredTo.GreaterThan(t.RcvNxt) {
		tr.report(t, cycle, "delivered-beyond-rcvnxt",
			fmt.Sprintf("DeliveredTo=%d > RcvNxt=%d", t.DeliveredTo, t.RcvNxt))
	}
	// …and a terminated flow must not hold armed timers.
	if t.State == flow.StateClosed &&
		(t.RetransAt != 0 || t.ProbeAt != 0 || t.DelAckAt != 0 || t.KeepaliveAt != 0) {
		tr.report(t, cycle, "timer-armed-on-closed",
			fmt.Sprintf("retrans=%d probe=%d delack=%d keepalive=%d",
				t.RetransAt, t.ProbeAt, t.DelAckAt, t.KeepaliveAt))
	}

	// Congestion-control state invariants, on flows whose program is live.
	if ccActive(t.State) {
		// Every program floors its window at one segment — even the RTO
		// collapse leaves cwnd = 1 MSS. A smaller window deadlocks the
		// flow (nothing is ever eligible to send).
		if t.Cwnd < tr.mss {
			tr.report(t, cycle, "cwnd-below-mss",
				fmt.Sprintf("cwnd=%d < mss=%d", t.Cwnd, tr.mss))
		}
		if tr.alg == "bbr" {
			// BBR is model-based: it regulates through cwnd alone and
			// must never touch the slow-start threshold. A moved
			// ssthresh means a loss-based code path ran under bbr.
			if t.Ssthresh != cc.InitialSsthresh {
				tr.report(t, cycle, "bbr-ssthresh-mutated",
					fmt.Sprintf("ssthresh=%d, want pinned at %d", t.Ssthresh, uint32(cc.InitialSsthresh)))
			}
		} else if t.Ssthresh != cc.InitialSsthresh && t.Ssthresh < cc.MinSsthresh(tr.mss) {
			// Loss-based programs clamp every ssthresh reduction at
			// MinSsthresh; anything between the floor and the initial
			// sentinel escaped the clamp.
			tr.report(t, cycle, "ssthresh-below-floor",
				fmt.Sprintf("ssthresh=%d < floor=%d", t.Ssthresh, cc.MinSsthresh(tr.mss)))
		}
	}

	// CCVars aliasing: within one visiting pass, each live flow must own
	// a distinct congestion-variable block in the flat TCB arena.
	if tr.passSeen != nil && ccActive(t.State) {
		addr := uintptr(unsafe.Pointer(&t.CCVars[0]))
		if other, dup := tr.passSeen[addr]; dup && other != t.FlowID {
			tr.report(t, cycle, "ccvars-aliased",
				fmt.Sprintf("flows %d and %d share CCVars block %#x", other, t.FlowID, addr))
		}
		tr.passSeen[addr] = t.FlowID
	}

	s, known := tr.prev[t.FlowID]
	if known && (s.tuple != t.Tuple || s.iss != t.ISS) {
		known = false // ID reused for a different connection
	}
	// The receive-side anchors only exist once the handshake has taught
	// us the peer's ISN: a sample taken in SYN-SENT (or earlier) holds
	// RcvNxt=0, and the jump to IRS+1 on establishment is not a
	// regression.
	rcvAnchored := s.state != flow.StateClosed &&
		s.state != flow.StateListen && s.state != flow.StateSynSent

	if known {
		// Cumulative pointers only move forward: an ACK may not regress,
		// received-in-order data may not un-arrive, and the app-visible
		// delivery boundary may not retreat.
		if t.SndUna.LessThan(s.sndUna) {
			tr.report(t, cycle, "ack-regression",
				fmt.Sprintf("SndUna %d -> %d", s.sndUna, t.SndUna))
		}
		if rcvAnchored && t.RcvNxt.LessThan(s.rcvNxt) {
			tr.report(t, cycle, "rcvnxt-regression",
				fmt.Sprintf("RcvNxt %d -> %d", s.rcvNxt, t.RcvNxt))
		}
		if rcvAnchored && t.DeliveredTo.LessThan(s.deliveredTo) {
			tr.report(t, cycle, "delivered-regression",
				fmt.Sprintf("DeliveredTo %d -> %d", s.deliveredTo, t.DeliveredTo))
		}
		if !legalNext[s.state][t.State] {
			tr.report(t, cycle, "illegal-state-transition",
				fmt.Sprintf("%v -> %v", s.state, t.State))
		}
		// While no progress is acknowledged, RTO backoff may only grow:
		// a rewind without an ACK means a retransmission timer fired
		// from stale state.
		if t.State == s.state && t.State != flow.StateClosed &&
			t.SndUna == s.sndUna && t.Backoff < s.backoff {
			tr.report(t, cycle, "backoff-rewind",
				fmt.Sprintf("backoff %d -> %d with SndUna pinned at %d",
					s.backoff, t.Backoff, t.SndUna))
		}
		// Ssthresh may move both ways once lowered (loss raises and
		// lowers it with cwnd), but it can never return to the initial
		// "unbounded" sentinel: no program assigns that value after
		// Init, so seeing it again means the CC state was reinitialized
		// under a live connection.
		if ccActive(t.State) && ccActive(s.state) &&
			s.ssthresh != cc.InitialSsthresh && t.Ssthresh == cc.InitialSsthresh {
			tr.report(t, cycle, "ssthresh-sentinel-revival",
				fmt.Sprintf("ssthresh %d -> initial sentinel %d", s.ssthresh, t.Ssthresh))
		}
	}
	tr.prev[t.FlowID] = snap{
		tuple: t.Tuple, iss: t.ISS, state: t.State,
		sndUna: t.SndUna, rcvNxt: t.RcvNxt,
		deliveredTo: t.DeliveredTo, backoff: t.Backoff,
		ssthresh: t.Ssthresh,
	}
}
