package datapath

import (
	"unsafe"

	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// parserFlow is the RX parser's per-flow shadow state: the reassembler,
// the last ACK/window seen (for duplicate-ACK detection), and the receive
// ring the parser DMAs payloads into (§4.1.2 RX data path). The
// reassembler is embedded (reasmStore) so one arena slot carries the
// whole per-flow footprint; reasm points at it once the SYN anchors the
// in-order boundary, and stays nil before that.
type parserFlow struct {
	id      flow.ID
	reasm   *Reassembler
	ring    *Ring
	lastAck seqnum.Value
	lastWnd uint32
	haveAck bool
	synSeen bool
	rcvBuf  uint32
	finSeen bool
	finSeq  seqnum.Value

	reasmStore Reassembler
}

// pfArenaChunk is the parser-flow arena granularity.
const pfArenaChunk = 256

// pfArena bump-allocates parserFlows in chunks and recycles released
// slots through a free list. Unlike the engine's TCB arena, reuse is
// safe here: nothing outside the parser retains a *parserFlow, and
// Deregister is the single release point. Recycled slots keep their
// reassembler's chunk buffers, so long-lived endpoints stop allocating
// per-connection once the churn working set is warm.
type pfArena struct {
	chunk  []parserFlow
	used   int
	free   []*parserFlow
	chunks int64 // chunks ever allocated (memory accounting)
}

func (a *pfArena) alloc() *parserFlow {
	if n := len(a.free); n > 0 {
		pf := a.free[n-1]
		a.free = a.free[:n-1]
		return pf
	}
	if a.used == len(a.chunk) {
		a.chunk = make([]parserFlow, pfArenaChunk)
		a.used = 0
		a.chunks++
	}
	pf := &a.chunk[a.used]
	a.used++
	return pf
}

func (a *pfArena) release(pf *parserFlow) {
	chunks, scratch := pf.reasmStore.chunks[:0], pf.reasmStore.scratch[:0]
	*pf = parserFlow{}
	pf.reasmStore.chunks, pf.reasmStore.scratch = chunks, scratch
	a.free = append(a.free, pf)
}

// ParseResult is what the RX parser hands the control path for one TCP
// packet: a digested event plus drop accounting.
type ParseResult struct {
	Event   flow.Event
	Dropped bool // payload did not fit the receive window
	NoFlow  bool // 4-tuple matched no registered flow
}

// Parser is the RX parser: cuckoo flow lookup, per-flow reassembly, and
// event digestion. Both the engine (with pipeline timing) and the
// software stack (with CPU costs) drive this same logic.
type Parser struct {
	table    *CuckooTable
	flows    flow.Table[*parserFlow]
	arena    pfArena
	wndScale uint8
	rcvBuf   uint32
}

// NewParser returns a parser that accepts up to maxFlows concurrent
// connections. Storage (flow table, per-flow arena) starts small and
// grows with registrations, so the bound can be generous.
func NewParser(maxFlows int, rcvBuf uint32, wndScale uint8, seed uint64) *Parser {
	return &Parser{
		table:    NewCuckooTable(maxFlows, seed),
		wndScale: wndScale,
		rcvBuf:   rcvBuf,
	}
}

// Register installs a flow in the lookup table. ring may be nil for
// modelled-only transfers. For active opens the in-order boundary is not
// known yet; it is set when the peer's SYN arrives.
func (p *Parser) Register(t wire.FourTuple, id flow.ID, ring *Ring) bool {
	if !p.table.Insert(t, id) {
		return false
	}
	pf := p.arena.alloc()
	pf.id, pf.ring, pf.rcvBuf = id, ring, p.rcvBuf
	p.flows.Set(id, pf)
	return true
}

// Deregister removes a flow from the lookup table and recycles its
// arena slot.
func (p *Parser) Deregister(t wire.FourTuple, id flow.ID) {
	p.table.Delete(t)
	if pf := p.flows.Get(id); pf != nil {
		p.arena.release(pf)
		p.flows.Clear(id)
	}
}

// Lookup exposes the flow table (used by tests and the engine's RSS).
func (p *Parser) Lookup(t wire.FourTuple) (flow.ID, bool) { return p.table.Lookup(t) }

// Ring returns a flow's receive ring (nil in modelled-only mode).
func (p *Parser) Ring(id flow.ID) *Ring {
	if f := p.flows.Get(id); f != nil {
		return f.ring
	}
	return nil
}

// TableStats exposes the flow table's occupancy counters.
func (p *Parser) TableStats() CuckooStats { return p.table.Stats() }

// ParserMem is the parser's allocated per-flow footprint.
type ParserMem struct {
	TableEntries int64 // resident flow-table entries
	TableBytes   int64 // flow-table slots + stash (allocated, not just used)
	FlowCount    int64 // registered flows
	FlowBytes    int64 // parser-flow arena chunks (embedded reassemblers included) + the per-ID table
	ReasmBytes   int64 // out-of-order chunk buffers beyond the embedded structs
}

// Mem reports the parser's memory accounting. The flow scan is O(flows);
// call it from snapshots, not per packet.
func (p *Parser) Mem() ParserMem {
	m := ParserMem{
		TableEntries: int64(p.table.Len()),
		TableBytes:   p.table.MemBytes(),
		FlowBytes:    p.arena.chunks*pfArenaChunk*int64(unsafe.Sizeof(parserFlow{})) + p.flows.MemBytes(),
	}
	for id := 0; id < p.flows.Len(); id++ {
		if pf := p.flows.Get(flow.ID(id)); pf != nil {
			m.FlowCount++
			m.ReasmBytes += pf.reasmStore.MemBytes()
		}
	}
	return m
}

// Parse digests one received TCP packet into a control-path event,
// performing window admission, payload DMA, logical reassembly and
// duplicate-ACK detection. It mirrors §4.1.2: data is written to the
// buffer whether or not it is in order; the application is notified only
// of the in-order boundary.
func (p *Parser) Parse(pkt *wire.Packet) ParseResult {
	tuple := pkt.Tuple()
	id, ok := p.table.Lookup(tuple)
	if !ok {
		return ParseResult{NoFlow: true}
	}
	pf := p.flows.Get(id)
	if pf == nil {
		return ParseResult{NoFlow: true}
	}

	ev := flow.Event{Kind: flow.EvRx, Flow: id, Coalescable: true}
	hdr := &pkt.TCP

	// Connection flags. An RST carries its sequence number (and ack, if
	// present) through the event so the FPU can validate it against the
	// receive window before honouring the abort (RFC 793 §3.4).
	if hdr.Flags&wire.FlagRST != 0 {
		ev.RxFlags |= flow.RxRST
		ev.RstSeq = hdr.Seq
		if hdr.Flags&wire.FlagACK != 0 {
			ev.RstHasAck = true
			ev.RstAck = hdr.Ack
		}
		ev.Coalescable = false
		return ParseResult{Event: ev}
	}
	if hdr.Flags&wire.FlagSYN != 0 {
		ev.RxFlags |= flow.RxSYN
		ev.SynSeq = hdr.Seq
		ev.Coalescable = false
		if !pf.synSeen {
			pf.synSeen = true
			pf.reasmStore.Reset(hdr.Seq.Add(1))
			pf.reasm = &pf.reasmStore
		}
	}

	// ECN: congestion-experienced marks on data and echo flags on acks
	// are conveyed as counters (they must never coalesce away).
	if pkt.IP.ECN == wire.ECNCE && pkt.PayloadLen > 0 {
		ev.CE = true
		ev.Coalescable = false
	}
	if hdr.Flags&wire.FlagECE != 0 && hdr.Flags&wire.FlagACK != 0 {
		ev.ECE = true
		ev.Coalescable = false
	}

	// ACK and window (latest value wins downstream).
	if hdr.Flags&wire.FlagACK != 0 {
		wnd := uint32(hdr.Window) << p.wndScale
		payload := pkt.PayloadLen
		isDup := payload == 0 &&
			hdr.Flags&(wire.FlagSYN|wire.FlagFIN) == 0 &&
			pf.haveAck && hdr.Ack == pf.lastAck && wnd == pf.lastWnd
		if isDup {
			ev.IsDupAck = true
			ev.Coalescable = false // increments must not merge away
		} else {
			ev.HasAck = true
			ev.Ack = hdr.Ack
		}
		ev.HasWnd = true
		ev.Wnd = wnd
		pf.lastAck, pf.lastWnd, pf.haveAck = hdr.Ack, wnd, true
	}

	dropped := false
	if pkt.PayloadLen > 0 {
		if pf.reasm == nil {
			// Data before any SYN: nothing to anchor reassembly to.
			dropped = true
			ev.AckNow = true
			ev.Coalescable = false
		} else {
			res := pf.reasm.Insert(hdr.Seq, pkt.PayloadLen, pf.rcvBuf)
			if res.Admitted {
				// DMA the payload into the receive ring regardless of
				// order (§4.1.2); reassembly is logical.
				if pf.ring != nil && pkt.Payload != nil {
					pf.ring.WriteAt(hdr.Seq, pkt.Payload)
				}
			} else {
				dropped = true
			}
			if res.Advanced {
				ev.HasData = true
				ev.RcvData = res.NewRcvNxt
			}
			if res.OutOfOrder || res.Duplicate || !res.Admitted {
				// Gaps, retransmissions and out-of-window arrivals all
				// demand an immediate (duplicate) ACK.
				ev.AckNow = true
				ev.Coalescable = false
			}
		}
	}

	// FIN: record its sequence (end of payload); deliver the flag only —
	// the FPU consumes it once in order.
	if hdr.Flags&wire.FlagFIN != 0 {
		finSeq := hdr.Seq.Add(seqnum.Size(pkt.PayloadLen))
		if !pf.finSeen {
			pf.finSeen = true
			pf.finSeq = finSeq
		}
		ev.RxFlags |= flow.RxFIN
		ev.FinSeq = finSeq
		ev.Coalescable = false
		if pf.reasm != nil && finSeq == pf.reasm.RcvNxt() {
			pf.reasm.AdvanceTo(finSeq.Add(1))
		}
	}

	return ParseResult{Event: ev, Dropped: dropped}
}
