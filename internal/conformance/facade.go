package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync/atomic"

	"f4t/internal/core"
	"f4t/internal/engine"
	"f4t/internal/netapi"
	"f4t/internal/netsim"
	"f4t/internal/pcap"
	"f4t/internal/sim"
	"f4t/internal/wire"
)

// FacadeConfig parameterizes one facade conformance run: concurrent
// net.Conn streams pushed through the netapi facade over an
// engine-engine rig, every echoed byte verified against its pattern.
// Like the chaos harness, identical configs produce identical runs.
type FacadeConfig struct {
	Seed  uint64
	Conns int // concurrent connections (dialed A→B)
	Bytes int // payload bytes per connection (client → server → back)

	// Shards > 1 makes RunFacade run the rig sharded. The shard matrix
	// test holds every fabric to a bit-identical digest.
	Shards int

	// PCAPPath, when non-empty, writes the rig's link capture there.
	PCAPPath string

	// EndCycle normalizes the digest: after the workload finishes the
	// clock runs out to this cycle so late timers fire on every fabric.
	// <= 0 selects a default sized for the CI shapes.
	EndCycle int64
}

// FacadeResult is one facade run's verdict.
type FacadeResult struct {
	Violations []string
	Digest     string // fabric-comparable run fingerprint
	EndCycle   int64
	Frames     int // captured frames (0 without -pcap)
}

// Failed reports whether the run violated byte-exactness or liveness.
func (r FacadeResult) Failed() bool { return len(r.Violations) > 0 }

// facadePat is the deterministic payload byte at a stream offset.
func facadePat(conn, off int) byte { return byte(off)*5 + byte(conn*29+3) }

// RunFacade executes one facade conformance run on a fresh serial
// kernel, or on cfg.Shards shards.
func RunFacade(cfg FacadeConfig) FacadeResult {
	if cfg.Shards > 1 {
		return RunFacadeOn(sim.NewSharded(cfg.Shards), cfg)
	}
	return RunFacadeOn(sim.New(), cfg)
}

// RunFacadeOn is RunFacade on the given (fresh) fabric. The workload is
// cfg.Conns concurrent client connections, each writing cfg.Bytes of
// patterned payload to an echo server while a concurrent reader
// verifies every echoed byte — the stream-level contract (ordering,
// no loss, no duplication) checked through the stdlib net.Conn surface
// instead of the raw socket API, under deterministic packet loss.
func RunFacadeOn(fab sim.Fabric, cfg FacadeConfig) FacadeResult {
	if cfg.Conns <= 0 {
		cfg.Conns = 3
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 20_000
	}
	if cfg.EndCycle <= 0 {
		cfg.EndCycle = 80_000_000
	}

	ipA, ipB := wire.MakeAddr(10, 9, 1, 1), wire.MakeAddr(10, 9, 1, 2)
	link := netsim.NewNodeLinkOn(fab,
		netsim.NodeSpec{Addr: ipA, MAC: wire.MAC{2, 9, 1, 0, 0, 1}, Island: islandA, Gbps: 100, PropNS: 600},
		netsim.NodeSpec{Addr: ipB, MAC: wire.MAC{2, 9, 1, 0, 0, 2}, Island: islandB, Gbps: 100, PropNS: 600}, cfg.Seed*4+1)
	// Deterministic loss on the data-bearing direction: byte-exactness
	// must survive retransmission, not just a clean run.
	link.AtoB.SetFaults(netsim.Faults{DropEvery: 37})

	var capture *pcap.Capture
	if cfg.PCAPPath != "" {
		capture = pcap.New()
		capture.TapLink(link, "facade")
	}

	rig := core.Build(fab, link, func(i int) engine.Config {
		ecfg := engine.DefaultConfig()
		ecfg.Channels, ecfg.CarryBytes, ecfg.Seed = 1, true, cfg.Seed*4+2+uint64(i)
		return ecfg
	}, nil)
	engA, engB := rig.Engines[0], rig.Engines[1]

	stA := netapi.NewEngineStack(fab, islandA, engA, 0)
	stB := netapi.NewEngineStack(fab, islandB, engB, 0)
	defer func() {
		stA.Shutdown()
		stB.Shutdown()
		stA.Wait()
		stB.Wait()
	}()

	res := FacadeResult{}
	var mu struct {
		viol [maxViolations]string
		n    atomic.Int32
	}
	violate := func(format string, args ...any) {
		if i := mu.n.Add(1) - 1; int(i) < len(mu.viol) {
			mu.viol[i] = fmt.Sprintf(format, args...)
		}
	}

	stB.Go(func() {
		ln, err := stB.Listen(rigPort)
		if err != nil {
			violate("listen: %v", err)
			return
		}
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			stB.Go(func() {
				io.Copy(c, c)
				c.Close()
			})
		}
	})

	sums := make([][]byte, cfg.Conns)
	var finished atomic.Int32
	for i := 0; i < cfg.Conns; i++ {
		idx := i
		stA.Go(func() {
			defer finished.Add(1)
			c, err := stA.DialAddr(ipB, rigPort)
			if err != nil {
				violate("conn %d: dial: %v", idx, err)
				return
			}
			defer c.Close()
			// Writer runs concurrently with the verifying reader: an
			// echo stream longer than the combined buffering would
			// deadlock a write-all-then-read-all client.
			stA.Go(func() {
				buf := make([]byte, 1024)
				for off := 0; off < cfg.Bytes; {
					n := len(buf)
					if cfg.Bytes-off < n {
						n = cfg.Bytes - off
					}
					for j := 0; j < n; j++ {
						buf[j] = facadePat(idx, off+j)
					}
					wn, err := c.Write(buf[:n])
					off += wn
					if err != nil {
						violate("conn %d: write at %d: %v", idx, off, err)
						return
					}
				}
			})
			sum := sha256.New()
			buf := make([]byte, 2048)
			for off := 0; off < cfg.Bytes; {
				n, err := c.Read(buf)
				for j := 0; j < n; j++ {
					if buf[j] != facadePat(idx, off+j) {
						violate("conn %d: byte-stream-corruption at %d: got %#x want %#x",
							idx, off+j, buf[j], facadePat(idx, off+j))
						return
					}
				}
				sum.Write(buf[:n])
				off += n
				if err != nil {
					violate("conn %d: read at %d: %v", idx, off, err)
					return
				}
			}
			sums[idx] = sum.Sum(nil)
		})
	}

	stB.Settle()
	stA.Settle()
	for finished.Load() < int32(cfg.Conns) && fab.Now() < cfg.EndCycle {
		fab.Run(20_000)
	}
	if finished.Load() < int32(cfg.Conns) {
		violate("liveness: %d of %d connections finished by cycle %d",
			finished.Load(), cfg.Conns, cfg.EndCycle)
	}
	// Normalize every fabric to the same end cycle before digesting.
	if rem := cfg.EndCycle - fab.Now(); rem > 0 {
		fab.Run(rem)
	}

	all := sha256.New()
	for _, s := range sums {
		all.Write(s)
	}
	res.EndCycle = fab.Now()
	res.Digest = fmt.Sprintf("end=%d conns=%d ab=%d/%dB ba=%d/%dB drops=%d/%d sha=%s",
		res.EndCycle, cfg.Conns,
		link.AtoB.SentPkts, link.AtoB.SentBytes,
		link.BtoA.SentPkts, link.BtoA.SentBytes,
		link.AtoB.DroppedPkts, link.BtoA.DroppedPkts,
		hex.EncodeToString(all.Sum(nil)))

	n := int(mu.n.Load())
	if n > len(mu.viol) {
		n = len(mu.viol)
	}
	res.Violations = append(res.Violations, mu.viol[:n]...)

	if capture != nil {
		res.Frames = capture.Frames()
		if err := capture.WriteFile(cfg.PCAPPath); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("write pcap: %v", err))
		}
	}
	return res
}

// FacadeReplayCommand renders the exact command that reproduces a
// facade configuration.
func FacadeReplayCommand(cfg FacadeConfig) string {
	s := fmt.Sprintf("go run ./cmd/f4tconform -rig facade -seed %d -conns %d -bytes %d",
		cfg.Seed, cfg.Conns, cfg.Bytes)
	if cfg.Shards > 1 {
		s += fmt.Sprintf(" -shards %d", cfg.Shards)
	}
	if cfg.PCAPPath != "" {
		s += " -pcap " + cfg.PCAPPath
	}
	return s
}
