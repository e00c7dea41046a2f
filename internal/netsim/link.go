// Package netsim models the physical network of the evaluation testbed:
// point-to-point 100 Gbps Ethernet links with byte-accurate serialization
// (including the 78 B per-packet overhead), propagation delay, and
// deterministic fault injection (loss, duplication, reordering) for the
// congestion-control and robustness experiments.
//
// Pipes are not tickers: every delivery is scheduled on a kernel timer
// at Send time, so in-flight packets bound the kernel's cycle skipping
// automatically and the package needs no NextWork hints.
package netsim

import (
	"f4t/internal/sim"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// TapNote annotates a tapped frame with what the network element did
// to it (bits may combine, e.g. TapSent|TapMarkCE).
type TapNote uint16

// Tap annotation bits.
const (
	TapSent      TapNote = 1 << iota // frame went onto the wire
	TapDropFault                     // dropped by fault injection (loss/DropEvery/DropOnce)
	TapDropTail                      // dropped by a queue byte/packet limit
	TapDropAQM                       // dropped early by the AQM law (RED band, CoDel)
	TapMarkCE                        // ECN CE mark applied
	TapReorder                       // delivery delayed by the reorder fault
	TapDup                           // duplicate delivery of the previous frame
)

// Tap observes frames at a network element's decision points: sends
// (after marking), drops, and duplicates. It runs synchronously inside
// the element's own execution context, before any packet recycling, so
// implementations may Marshal the frame but must not retain it. nowNS
// is the element's kernel clock.
type Tap func(nowNS int64, pkt *wire.Packet, note TapNote)

// Faults configures deterministic fault injection on one pipe direction.
// Zero value = perfect link.
type Faults struct {
	LossProb    float64 // i.i.d. packet drop probability
	DupProb     float64 // i.i.d. duplication probability
	ReorderProb float64 // probability of delaying a packet by ReorderNS
	ReorderNS   int64   // extra delay applied to reordered packets
	DropEvery   int64   // drop exactly every Nth packet (0 = off); useful
	// for the Fig 14 "occasional packet drops" runs where determinism
	// matters more than randomness
	DropOnce int64 // drop exactly the Nth packet then disarm (0 = off)
}

// Pipe is one direction of a link.
type Pipe struct {
	k             *sim.Kernel
	post          sim.Poster // delivery scheduler: the kernel, or a cross-shard mailbox
	deliverFn     func(any)  // pre-bound delivery callback (one closure per pipe, not per packet)
	rate          *sim.ByteRate
	prop          int64 // propagation delay in cycles
	deliver       func(*wire.Packet)
	faults        Faults
	rng           *sim.Rand
	markThreshold int64 // backlog cycles above which ECT packets are CE-marked (SetAQM)
	tap           Tap   // frame observer (pcap capture); nil when off

	// Stats.
	SentPkts    int64
	SentBytes   int64 // wire bytes including all overheads
	DroppedPkts int64
	DupPkts     int64
	ReorderPkts int64
	MarkedPkts  int64 // CE marks applied (ECN)

	// Telemetry (nil when disabled; see telemetry.go).
	trc *telemetry.Trace
	tid int32
}

// NewPipe builds a unidirectional pipe of the given bandwidth and
// propagation delay, delivering packets to the given sink.
func NewPipe(k *sim.Kernel, gbps int64, propNS int64, seed uint64, deliver func(*wire.Packet)) *Pipe {
	p := &Pipe{
		k:       k,
		rate:    sim.GbpsRate(gbps),
		prop:    sim.NSToCycles(propNS),
		deliver: deliver,
		rng:     sim.NewRand(seed),
	}
	p.post = k
	p.deliverFn = func(arg any) { p.deliver(arg.(*wire.Packet)) }
	return p
}

// MinLatencyCycles returns the smallest possible cycle delta between a
// Send and its delivery on a link with the given propagation delay: the
// propagation time plus at least one serialization cycle. This is the
// conservative lookahead a sharded fabric derives its synchronization
// window from.
func MinLatencyCycles(propNS int64) int64 { return sim.NSToCycles(propNS) + 1 }

// SetFaults installs a fault-injection profile.
func (p *Pipe) SetFaults(f Faults) { p.faults = f }

// SetTap installs a frame observer (nil to remove).
func (p *Pipe) SetTap(t Tap) { p.tap = t }

// SetAQM installs a queue discipline on the pipe. A pipe's queue is its
// implicit serialization backlog, so only the DCTCP step-marking subset
// applies (AQMDropTail + MarkThresholdNS): ECN-capable packets are
// CE-marked while the backlog delay exceeds the threshold — the switch
// behaviour DCTCP depends on. Disciplines that need an explicit packet
// queue (RED, CoDel) live on a RouterPort; asking a pipe for them is a
// rig construction bug and panics.
func (p *Pipe) SetAQM(cfg AQMConfig) {
	if cfg.Kind != AQMDropTail {
		panic("netsim: Pipe supports only threshold ECN marking; use a RouterPort for " + cfg.Kind.String())
	}
	p.markThreshold = sim.NSToCycles(cfg.MarkThresholdNS)
}

// SetSink replaces the delivery callback (used when endpoints attach
// after link construction).
func (p *Pipe) SetSink(deliver func(*wire.Packet)) { p.deliver = deliver }

// Backlog returns the cycles of queued serialization work.
func (p *Pipe) Backlog() int64 { return p.rate.Backlog(p.k.Now()) }

// Send serializes the packet onto the wire. Delivery happens after
// serialization plus propagation; transfers queue behind earlier ones
// (the link is the shared serial resource the goodput arithmetic of §5.1
// is about).
func (p *Pipe) Send(pkt *wire.Packet) {
	p.SentPkts++
	wireLen := int64(pkt.WireLen())
	p.SentBytes += wireLen
	done := p.rate.Reserve(p.k.Now(), wireLen)

	f := &p.faults
	if f.DropOnce > 0 {
		f.DropOnce--
		if f.DropOnce == 0 {
			p.DroppedPkts++
			if p.trc != nil {
				p.traceFault("pkt.drop")
			}
			if p.tap != nil {
				p.tap(p.k.NowNS(), pkt, TapDropFault)
			}
			return
		}
	}
	if f.DropEvery > 0 && p.SentPkts%f.DropEvery == 0 {
		p.DroppedPkts++
		if p.trc != nil {
			p.traceFault("pkt.drop")
		}
		if p.tap != nil {
			p.tap(p.k.NowNS(), pkt, TapDropFault)
		}
		return
	}
	if f.LossProb > 0 && p.rng.Bool(f.LossProb) {
		p.DroppedPkts++
		if p.trc != nil {
			p.traceFault("pkt.drop")
		}
		if p.tap != nil {
			p.tap(p.k.NowNS(), pkt, TapDropFault)
		}
		return
	}

	note := TapSent

	// ECN marking (shared AQM path, see aqm.go): an over-threshold
	// standing queue marks ECN-capable traffic instead of growing
	// unbounded.
	if p.markThreshold > 0 && ecnCapable(pkt) &&
		p.rate.Backlog(p.k.Now()) > p.markThreshold {
		pkt = markCE(pkt)
		p.MarkedPkts++
		if p.trc != nil {
			p.traceFault("pkt.mark")
		}
		note |= TapMarkCE
	}

	at := done + p.prop
	if f.ReorderProb > 0 && p.rng.Bool(f.ReorderProb) {
		at += sim.NSToCycles(f.ReorderNS)
		p.ReorderPkts++
		if p.trc != nil {
			p.traceFault("pkt.reorder")
		}
		note |= TapReorder
	}
	if p.trc != nil {
		p.traceSend(p.k.Now(), at, wireLen)
	}
	if p.tap != nil {
		p.tap(p.k.NowNS(), pkt, note)
	}
	p.post.AtCall(at, p.deliverFn, pkt)

	if f.DupProb > 0 && p.rng.Bool(f.DupProb) {
		p.DupPkts++
		if p.trc != nil {
			p.traceFault("pkt.dup")
		}
		dup := pkt.Clone()
		if p.tap != nil {
			p.tap(p.k.NowNS(), dup, TapSent|TapDup)
		}
		p.post.AtCall(at+1, p.deliverFn, dup)
	}
}

// Utilization returns the fraction of cycles the pipe has been busy.
func (p *Pipe) Utilization() float64 {
	now := p.k.Now()
	if now == 0 {
		return 0
	}
	return float64(p.rate.BusyCycles()) / float64(now)
}

// Link is a full-duplex point-to-point link between endpoints A and B:
// the two-node network. It exposes the same node seam as Topology
// (Nodes/Node/NodeTX/SetNodeSink, node 0 = A, node 1 = B), so a rig
// builder attaches hosts to either without knowing which it got.
type Link struct {
	AtoB *Pipe
	BtoA *Pipe

	nodes [2]NodeSpec
}

// NewLink builds a duplex link on a serial kernel; sinks attach
// afterwards via SetSink.
func NewLink(k *sim.Kernel, gbps int64, propNS int64, seed uint64) *Link {
	return NewLinkOn(k, 0, 1, gbps, propNS, seed)
}

// NewLinkOn builds an address-less duplex link between two islands of a
// Fabric (see NewNodeLinkOn).
func NewLinkOn(f sim.Fabric, islandA, islandB int, gbps int64, propNS int64, seed uint64) *Link {
	return NewNodeLinkOn(f,
		NodeSpec{Island: islandA, Gbps: gbps, PropNS: propNS},
		NodeSpec{Island: islandB, Gbps: gbps, PropNS: propNS}, seed)
}

// NewNodeLinkOn builds a duplex link between two described nodes, which
// must state the same Gbps and PropNS: one link has one rate. Each
// pipe's clock (serialization, backlog, fault draws) is its sending
// node's island kernel, and deliveries are scheduled through the
// fabric — a plain timer when both islands share a kernel, a
// deterministic cross-shard mailbox otherwise. The link declares its
// minimum sender-to-receiver latency to the fabric, which bounds the
// sharded scheduler's synchronization window.
func NewNodeLinkOn(f sim.Fabric, a, b NodeSpec, seed uint64) *Link {
	if a.Gbps != b.Gbps || a.PropNS != b.PropNS {
		panic("netsim: the two ends of a link must state the same Gbps and PropNS")
	}
	ab := NewPipe(f.IslandKernel(a.Island), a.Gbps, a.PropNS, seed*2+1, nil)
	ab.post = f.CrossPost(a.Island, b.Island, MinLatencyCycles(a.PropNS))
	ba := NewPipe(f.IslandKernel(b.Island), a.Gbps, a.PropNS, seed*2+2, nil)
	ba.post = f.CrossPost(b.Island, a.Island, MinLatencyCycles(a.PropNS))
	return &Link{AtoB: ab, BtoA: ba, nodes: [2]NodeSpec{a, b}}
}

// tx returns the pipe node j transmits into (the other one delivers to
// it).
func (l *Link) tx(j int) *Pipe {
	if j == 0 {
		return l.AtoB
	}
	return l.BtoA
}

// Nodes returns the link's node count.
func (l *Link) Nodes() int { return 2 }

// Node returns the j-th node's spec.
func (l *Link) Node(j int) NodeSpec { return l.nodes[j] }

// NodeTX returns the j-th node's transmit function.
func (l *Link) NodeTX(j int) func(*wire.Packet) { return l.tx(j).Send }

// SetNodeSink attaches the j-th node's receive callback.
func (l *Link) SetNodeSink(j int, deliver func(*wire.Packet)) { l.tx(1 - j).SetSink(deliver) }
