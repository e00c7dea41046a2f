package netsim

import (
	"f4t/internal/sim"
	"f4t/internal/telemetry"
	"f4t/internal/wire"
)

// Router is an output-queued switch: packets arriving on any ingress are
// looked up by destination IP and handed to the egress RouterPort, whose
// queue discipline (AQMConfig) decides drops and ECN marks. The router
// itself holds no queue and no clock — all contention lives in the
// ports, which is the standard output-queued switch model and the one
// the paper's DCTCP/incast results presuppose.
//
// forward only mutates port state and wakes the port's kernel, so it is
// safe to call from a cross-shard mailbox delivery (where scheduling a
// local timer would panic); the port's own Tick, running under its own
// registration slot, does the serialization and delivery scheduling.
type Router struct {
	Name   string
	ports  []*RouterPort
	routes map[wire.Addr]*RouterPort

	// Stats.
	FwdPkts     int64 // packets matched to an egress port
	NoRoutePkts int64 // packets with no route (dropped silently)
}

// NewRouter returns an empty router; AttachNodeOn / ConnectRoutersOn add
// ports, and Route installs forwarding entries.
func NewRouter(name string) *Router {
	return &Router{Name: name, routes: make(map[wire.Addr]*RouterPort)}
}

// Route installs (or replaces) the egress port for a destination.
func (r *Router) Route(dst wire.Addr, p *RouterPort) { r.routes[dst] = p }

// forward looks up the egress port and enqueues. It is the sink of
// every ingress pipe and trunk port pointed at this router.
func (r *Router) forward(pkt *wire.Packet) {
	p := r.routes[pkt.IP.Dst]
	if p == nil {
		r.NoRoutePkts++
		return
	}
	r.FwdPkts++
	p.enqueue(pkt)
}

// Forward exposes the routing step as a packet sink (ingress pipes
// attach via SetSink(router.Forward)).
func (r *Router) Forward(pkt *wire.Packet) { r.forward(pkt) }

// Instrument registers the router's counters and every port's queue
// telemetry under prefix. Safe on a nil registry.
func (r *Router) Instrument(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+".fwd_pkts", func() int64 { return r.FwdPkts })
	reg.Gauge(prefix+".noroute_pkts", func() int64 { return r.NoRoutePkts })
	for _, p := range r.ports {
		p.Instrument(reg, prefix+"."+p.Name)
	}
}

// portPkt is one queued packet with its enqueue cycle (CoDel sojourn).
type portPkt struct {
	pkt     *wire.Packet
	wireLen int64
	enqAt   int64
}

// RouterPort is one egress port: an explicit FIFO governed by an AQM
// discipline, drained through a ByteRate serializer into a propagation
// delay, delivering to the attached sink (the next hop's DeliverPacket
// or a peer router's Forward). It implements sim.Sleeper on the
// router's island kernel; deliveries cross islands through the Poster
// the topology builder obtained from the fabric, so the same port works
// serially, with cycle skipping, and sharded.
type RouterPort struct {
	Name string

	k         *sim.Kernel
	wake      sim.Waker
	post      sim.Poster
	deliverFn func(any)
	rate      *sim.ByteRate
	prop      int64 // propagation delay in cycles
	sink      func(*wire.Packet)
	disc      aqm

	q         []portPkt
	head      int
	qBytes    int64
	busyUntil int64 // serializer-free cycle; 0 when idle
	tap       Tap   // frame observer (pcap capture); nil when off

	// Stats. FirstCongCycle records the first drop or mark (-1 until
	// one happens) — the "onset" the AQM comparison tests assert on.
	EnqPkts        int64
	DeqPkts        int64
	TailDrops      int64 // queue-limit overflows
	AQMDrops       int64 // early drops (RED band, CoDel law)
	MarkedPkts     int64 // CE marks applied
	PeakQBytes     int64
	PeakQPkts      int64
	FirstCongCycle int64
}

// newRouterPort builds a port on the router island's kernel. post
// schedules deliveries toward the destination island (the kernel itself
// when both share a shard).
func newRouterPort(k *sim.Kernel, post sim.Poster, name string, gbps, propNS int64, cfg AQMConfig) *RouterPort {
	p := &RouterPort{
		Name:           name,
		k:              k,
		post:           post,
		rate:           sim.GbpsRate(gbps),
		prop:           sim.NSToCycles(propNS),
		disc:           newAQM(cfg),
		FirstCongCycle: -1,
	}
	p.deliverFn = func(arg any) { p.sink(arg.(*wire.Packet)) }
	return p
}

// SetSink attaches the delivery callback (endpoints attach after
// topology construction, like Pipe.SetSink).
func (p *RouterPort) SetSink(deliver func(*wire.Packet)) { p.sink = deliver }

// SetTap installs a frame observer (nil to remove). Drops are tapped
// at decision time (enqueue or dequeue), sends when serialization
// starts, both with the port's marks applied.
func (p *RouterPort) SetTap(t Tap) { p.tap = t }

// QueuedPkts returns the current queue depth in packets.
func (p *RouterPort) QueuedPkts() int64 { return int64(len(p.q) - p.head) }

// congestion records a drop/mark event cycle for onset assertions.
func (p *RouterPort) congestion() {
	if p.FirstCongCycle < 0 {
		p.FirstCongCycle = p.k.Now()
	}
}

// enqueue admits one packet into the output queue. Cross-shard safe:
// it only mutates port state and wakes the port — the delivery timer is
// scheduled by Tick, which runs under the port's own slot.
func (p *RouterPort) enqueue(pkt *wire.Packet) {
	now := p.k.Now()
	wireLen := int64(pkt.WireLen())
	// Queueing delay the arrival would see: the in-flight packet's
	// remaining serialization plus the queued bytes ahead of it.
	qDelayNS := (p.rate.Backlog(now) + p.rate.CyclesFor(p.qBytes)) * sim.CycleNS
	switch p.disc.admitEnqueue(p.qBytes, wireLen, qDelayNS, ecnCapable(pkt)) {
	case admitDrop:
		// Tail drops and early drops are told apart by whether the
		// arrival would have fit under the byte limit.
		note := TapDropAQM
		if p.disc.cfg.LimitBytes > 0 && p.qBytes+wireLen > p.disc.cfg.LimitBytes {
			p.TailDrops++
			note = TapDropTail
		} else {
			p.AQMDrops++
		}
		p.congestion()
		if p.tap != nil {
			p.tap(now*sim.CycleNS, pkt, note)
		}
		return
	case admitMark:
		pkt = markCE(pkt)
		p.MarkedPkts++
		p.congestion()
	}
	p.EnqPkts++
	p.q = append(p.q, portPkt{pkt: pkt, wireLen: wireLen, enqAt: now})
	p.qBytes += wireLen
	if p.qBytes > p.PeakQBytes {
		p.PeakQBytes = p.qBytes
	}
	if n := p.QueuedPkts(); n > p.PeakQPkts {
		p.PeakQPkts = n
	}
	p.wake.Wake()
}

// SetWaker implements sim.Wakeable: arrivals wake the port.
func (p *RouterPort) SetWaker(w sim.Waker) { p.wake = w }

// Tick implements sim.Ticker: when the serializer is free, pop the head
// packet, run the dequeue-side discipline (CoDel), serialize it, and
// schedule delivery after propagation. At most one packet starts
// serializing per Tick — NextWork re-arms the port at busyUntil, so the
// drain costs one step per packet, not one per cycle.
func (p *RouterPort) Tick(cycle int64) {
	for p.busyUntil <= cycle && p.head < len(p.q) {
		e := p.q[p.head]
		p.head++
		p.qBytes -= e.wireLen
		sojournNS := (cycle - e.enqAt) * sim.CycleNS
		note := TapSent
		switch p.disc.admitDequeue(cycle*sim.CycleNS, sojournNS, p.qBytes, ecnCapable(e.pkt)) {
		case admitDrop:
			p.AQMDrops++
			p.congestion()
			if p.tap != nil {
				p.tap(cycle*sim.CycleNS, e.pkt, TapDropAQM)
			}
			continue // examine the next head this same cycle
		case admitMark:
			e.pkt = markCE(e.pkt)
			p.MarkedPkts++
			p.congestion()
			note |= TapMarkCE
		}
		p.DeqPkts++
		done := p.rate.Reserve(cycle, e.wireLen)
		p.busyUntil = done
		if p.tap != nil {
			p.tap(cycle*sim.CycleNS, e.pkt, note)
		}
		p.post.AtCall(done+p.prop, p.deliverFn, e.pkt)
	}
	if p.head == len(p.q) {
		// Queue drained: reset the ring so append stops growing it.
		p.q = p.q[:0]
		p.head = 0
	} else if p.head > 64 && p.head*2 >= len(p.q) {
		p.q = append(p.q[:0], p.q[p.head:]...)
		p.head = 0
	}
}

// NextWork implements sim.Sleeper: dormant when empty (arrivals Wake
// it), else the cycle the serializer frees up.
func (p *RouterPort) NextWork(now int64) int64 {
	if p.head >= len(p.q) {
		return sim.Dormant
	}
	if p.busyUntil <= now {
		return now + 1
	}
	return p.busyUntil
}

// Instrument registers the port's queue depth, drops and marks under
// prefix (e.g. "sw0.node0"). Safe on a nil registry.
func (p *RouterPort) Instrument(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+".q_bytes", func() int64 { return p.qBytes })
	reg.Gauge(prefix+".q_pkts", func() int64 { return p.QueuedPkts() })
	reg.Gauge(prefix+".peak_q_bytes", func() int64 { return p.PeakQBytes })
	reg.Gauge(prefix+".enq_pkts", func() int64 { return p.EnqPkts })
	reg.Gauge(prefix+".deq_pkts", func() int64 { return p.DeqPkts })
	reg.Gauge(prefix+".tail_drops", func() int64 { return p.TailDrops })
	reg.Gauge(prefix+".aqm_drops", func() int64 { return p.AQMDrops })
	reg.Gauge(prefix+".marked_pkts", func() int64 { return p.MarkedPkts })
}
