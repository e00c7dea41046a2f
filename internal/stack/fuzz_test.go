package stack

import (
	"bytes"
	"testing"
	"testing/quick"

	"f4t/internal/netsim"
	"f4t/internal/sim"
)

// TestProtocolFuzz drives two endpoints with a random operation schedule
// over a randomly faulty link and asserts the one invariant that matters:
// every byte the sender queued arrives at the receiver exactly once, in
// order, regardless of loss, duplication and reordering.
func TestProtocolFuzz(t *testing.T) {
	scenario := func(seedRaw uint32, lossRaw, dupRaw, reorderRaw uint8, opsRaw []byte) bool {
		p := newPair(t, true, "newreno")
		p.link.AtoB.SetFaults(netsim.Faults{
			LossProb:    float64(lossRaw%8) / 100,
			DupProb:     float64(dupRaw%8) / 100,
			ReorderProb: float64(reorderRaw%8) / 100,
			ReorderNS:   3_000,
		})
		p.link.BtoA.SetFaults(netsim.Faults{LossProb: float64(lossRaw%4) / 100})

		var srv *Conn
		p.b.Listen(80, func(c *Conn) { srv = c })
		cli := p.a.Dial(p.b.Opt.IP, 80)
		if !p.k.RunUntil(func() bool { return cli.Established() && srv != nil }, 100_000_000) {
			return false
		}

		// Build the reference stream from the op schedule.
		var sent []byte
		rng := sim.NewRand(uint64(seedRaw))
		var received []byte
		opIdx := 0
		budget := int64(800_000_000)
		for p.k.Now() < budget {
			if opIdx < len(opsRaw) {
				op := opsRaw[opIdx]
				opIdx++
				n := int(op)%900 + 1
				chunk := make([]byte, n)
				for j := range chunk {
					chunk[j] = byte(rng.Uint32())
				}
				accepted := cli.Send(chunk)
				sent = append(sent, chunk[:accepted]...)
			}
			p.k.Run(2_000)
			if got, n := srv.Recv(1 << 20); n > 0 {
				received = append(received, got...)
			}
			if opIdx >= len(opsRaw) && len(received) >= len(sent) {
				break
			}
		}
		// Drain any tail still in flight.
		for i := 0; i < 2000 && len(received) < len(sent); i++ {
			p.k.Run(50_000)
			if got, n := srv.Recv(1 << 20); n > 0 {
				received = append(received, got...)
			}
		}
		return bytes.Equal(sent, received)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(scenario, cfg); err != nil {
		t.Fatal(err)
	}
}
