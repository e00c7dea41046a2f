package netapi

import (
	"f4t/internal/engine"
	"f4t/internal/sim"
	"f4t/internal/sock"
	"f4t/internal/softstack"
	"f4t/internal/stack"
)

// The facade is written against the socket seam (package sock): a Stack
// drives one sock.Host, a Conn one sock.Conn. Both substrates implement
// those directly, so the two constructors below differ only in what they
// put behind the seam and which component ticks the pump.

// pump is the Stack's sim.Sleeper.
type pump struct{ st *Stack }

func (p pump) Tick(cycle int64)         { p.st.pumpTick(cycle) }
func (p pump) NextWork(now int64) int64 { return p.st.nextWork(now) }

// drain takes the substrate's readiness events, routing accepted
// connections to their listener's backlog (every other state change is
// read off the sock.Conn mirrors). It reports whether anything was
// processed.
func (st *Stack) drain() bool {
	active := st.host.Pending()
	for _, ev := range st.host.Poll() {
		if ev.Kind != sock.EvAccepted {
			continue
		}
		if ln := st.lns[ev.Conn.LocalPort()]; ln != nil && !ln.closedLn {
			ln.backlog = append(ln.backlog, ev.Conn)
		} else {
			st.orphans = append(st.orphans, ev.Conn)
		}
	}
	return active
}

// NewEngineStack builds a facade over channel chIdx of an FtEngine and
// registers its pump on the island. The engine must carry real payload
// bytes (Config.CarryBytes) and the channel must not be driven by any
// other component (no F4TMachine may share it — both would race for its
// completions). Register order matters for determinism: call this at
// the same point of rig construction on every fabric.
func NewEngineStack(f sim.Fabric, island int, eng *engine.Engine, chIdx int, opt Options) *Stack {
	k := f.IslandKernel(island)
	st := newStack(k, softstack.NewLib(k, eng, chIdx), opt)
	f.RegisterOn(island, pump{st})
	return st
}

// HostStack is a Stack over a software TCP endpoint, plus the node that
// drives the endpoint — the surface core.AttachSoft wires to a network
// (Endpoint, DeliverPacket).
type HostStack struct {
	*Stack
	*stack.Node
}

// NewHostStack builds a facade over a fresh software endpoint on the
// island. CarryBytes is forced on — the facade moves real payload. The
// pump rides the endpoint's node, so each cycle runs RX, timers, then
// the facade, in that order. The caller plugs it into a network with
// core.AttachSoft.
func NewHostStack(f sim.Fabric, island int, sopt stack.Options, opt Options) *HostStack {
	k := f.IslandKernel(island)
	sopt.CarryBytes = true
	if opt.LocalIP == 0 {
		opt.LocalIP = sopt.IP
	}
	ep := stack.New(k, sopt, nil)
	st := newStack(k, stack.NewHosts(ep, 1)[0], opt)
	node := stack.NewNode(ep)
	node.Rider = pump{st}
	f.RegisterOn(island, node)
	return &HostStack{Stack: st, Node: node}
}
