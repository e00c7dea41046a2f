package stack

import (
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

// A timer armed on an endpoint while another component runs (here a
// driver's Dial arms the SYN's retransmission timer) wakes the node
// that expires the endpoint's timers, at the deadline: with no peer to
// answer, the SYN goes out again one RTO later.
func TestEndpointArmWakesOwner(t *testing.T) {
	const rtoNS = 100_000
	for _, k := range []*sim.Kernel{sim.New(), sim.NewShadow()} {
		cfg := tcpproc.DefaultConfig()
		cfg.InitialRTO = rtoNS
		var sent []int64
		ep := New(k, Options{IP: wire.MakeAddr(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Cfg: cfg, Seed: 1},
			func(p *wire.Packet) {
				sent = append(sent, k.Now())
				wire.PutPacket(p)
			})
		peer := wire.MakeAddr(10, 0, 0, 2)
		ep.LearnPeer(peer, wire.MAC{2, 0, 0, 0, 0, 2})
		node := NewNode(ep)
		k.Register(node)
		k.Register(simtest.At(10, func() { NewHosts(ep, 1)[0].Dial(peer, 80) }))
		k.Run(sim.NSToCycles(rtoNS) + 100)
		if len(sent) != 2 || sent[0] != 10 || sent[1] != 10+sim.NSToCycles(rtoNS) {
			t.Fatalf("skipping %v: SYNs sent at %v, want [10 %d]", k.Skipping(), sent, 10+sim.NSToCycles(rtoNS))
		}
	}
}
