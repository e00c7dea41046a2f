package main

import (
	"time"

	"f4t/internal/cc"
	"f4t/internal/datapath"
	"f4t/internal/exp"
	"f4t/internal/flow"
	"f4t/internal/hostif"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/tcpproc"
	"f4t/internal/timerq"
	"f4t/internal/wire"
)

// The layer drivers call one module's public functions in isolation, with
// fixed operation counts, and report wall ns per operation. They are the
// same on every workload: a per-layer cost that a rig-level number can be
// divided by. scale shrinks the counts for smoke tests.

// sinkU64 keeps the compiler from discarding a driver's work.
var sinkU64 uint64

// timeOps runs fn once and returns wall ns per op.
func timeOps(ops int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// dormant is a registered component with nothing to do.
type dormant struct{ ticks int64 }

func (d *dormant) Tick(int64)           { d.ticks++ }
func (d *dormant) NextWork(int64) int64 { return sim.Dormant }

func runLayerDrivers(scale int) map[string]float64 {
	out := map[string]float64{}
	n := func(full int) int {
		if v := full / scale; v > 1000 {
			return v
		}
		return 1000
	}

	// sim: one timer event = At + heap pop + fire, on a kernel whose only
	// component is dormant, so every event costs one skip and one step.
	{
		ops := n(400_000)
		k := sim.New()
		k.Register(&dormant{})
		fired := 0
		fn := func() { fired++ }
		out["sim.timer_ns_per_event"] = timeOps(ops, func() {
			for i := 0; i < ops; i += 64 {
				for j := 0; j < 64; j++ {
					k.At(k.Now()+int64(10+j*3), fn)
				}
				k.Run(250)
			}
		})
		sinkU64 += uint64(fired)
	}
	// sim: the idle scan of one skip over 16 dormant sleepers (NextWork on
	// each, then one step that ticks each).
	{
		ops := n(400_000)
		k := sim.New()
		for i := 0; i < 16; i++ {
			k.Register(&dormant{})
		}
		var rearm func()
		rearm = func() { k.After(1000, rearm) }
		k.After(1000, rearm)
		out["sim.idle_scan_ns_per_skip"] = timeOps(ops, func() { k.Run(int64(ops) * 1000) })
	}

	// hostif: Post -> TickDevice (DMA fetch over the PCIe model) ->
	// PopCommand, 16 commands per doorbell batch.
	{
		ops := n(320_000)
		k := sim.New()
		k.Register(&dormant{})
		ch := hostif.NewChannel(k, hostif.NewPCIe(k, hostif.DefaultPCIe()), hostif.CommandBytes16)
		out["hostif.post_fetch_ns_per_cmd"] = timeOps(ops, func() {
			for i := 0; i < ops; i += 16 {
				for j := 0; j < 16; j++ {
					ch.Post(hostif.Command{Op: hostif.OpSend, Flow: flow.ID(j), Ptr: seqnum.Value(i)})
				}
				ch.TickDevice()
				for ch.DeviceBacklog() < 16 {
					k.Run(64)
				}
				for j := 0; j < 16; j++ {
					c, _ := ch.PopCommand()
					sinkU64 += uint64(c.Ptr)
				}
			}
		})
	}

	// fpc: an isolated FPC fed send requests over 128 resident flows.
	{
		cycles := int64(n(300_000))
		t0 := time.Now()
		rate := exp.DriveFPC(exp.F4TFPCDesign(14, "newreno"), 128, 128, cycles)
		out["fpc.drive_ns_per_cycle"] = float64(time.Since(t0).Nanoseconds()) / float64(cycles+10_000)
		sinkU64 += uint64(rate)
	}

	// datapath: the RX parser's flow table at 65 536 resident entries.
	{
		const resident = 65536
		keys := make([]wire.FourTuple, resident+4096)
		for i := range keys {
			keys[i] = wire.FourTuple{
				LocalAddr: exp.AddrB, RemoteAddr: wire.MakeAddr(10, 1, byte(i>>16), byte(i>>8)),
				LocalPort: 80, RemotePort: uint16(i),
			}
		}
		tbl := datapath.NewCuckooTable(resident+8192, 99)
		for i := 0; i < resident; i++ {
			tbl.Insert(keys[i], flow.ID(i))
		}
		ops := n(2_000_000)
		out["datapath.cuckoo_lookup_ns"] = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				id, _ := tbl.Lookup(keys[(i*7919)%resident])
				sinkU64 += uint64(id)
			}
		})
		ops = n(1_000_000)
		out["datapath.cuckoo_insert_delete_ns"] = timeOps(ops, func() {
			// A window of 4096 keys slides over the table: delete the
			// oldest resident key, insert the next fresh one.
			for i := 0; i < ops; i++ {
				tbl.Delete(keys[i%len(keys)])
				tbl.Insert(keys[(i+resident)%len(keys)], flow.ID(i))
			}
		})
	}

	// tcpproc + flow: one established flow; each round accumulates a user
	// send request and the peer's ACK of the previous data into the event
	// row, merges the row into the TCB and runs the FPU program on it.
	{
		proto := tcpproc.DefaultConfig()
		alg := cc.MustNew("newreno")
		newTCB := func() *flow.TCB {
			t := &flow.TCB{
				FlowID: 1, State: flow.StateEstablished,
				ISS: 1000, SndUna: 1001, SndNxt: 1001, Req: 1001,
				RcvBuf: proto.RcvBuf, SndWnd: 1 << 30,
				IRS: 5000, RcvNxt: 5001, AppRead: 5001, DeliveredTo: 5001, LastAckSent: 5001,
			}
			t.Cwnd, t.Ssthresh, t.AckedToHost = 1<<30, 1<<30, 1001
			return t
		}
		round := func(t *flow.TCB, row *flow.EventRow, req *seqnum.Value) {
			*req = req.Add(128)
			user := flow.Event{Kind: flow.EvUser, Flow: 1, HasReq: true, Req: *req, Coalescable: true}
			ack := flow.Event{Kind: flow.EvRx, Flow: 1, HasAck: true, Ack: t.SndNxt, HasWnd: true, Wnd: 1 << 30, Coalescable: true}
			row.Accumulate(&user)
			row.Accumulate(&ack)
			row.MergeInto(t)
		}
		ops := n(1_000_000)
		t, row, req := newTCB(), &flow.EventRow{}, seqnum.Value(1001)
		var acts tcpproc.Actions
		now := int64(1_000_000)
		both := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				round(t, row, &req)
				now += 1000
				tcpproc.Process(t, alg, &proto, now, &acts)
				acts.Reset()
			}
		})
		// The same rounds without Process: the TCB's inputs are cleared by
		// hand so the row merges into an empty input group each time.
		t, row, req = newTCB(), &flow.EventRow{}, seqnum.Value(1001)
		merge := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				round(t, row, &req)
				t.In.Clear()
			}
		})
		out["flow.accumulate_merge_ns"] = merge
		out["tcpproc.process_ns_per_event"] = (both - merge) / 2
		if both < merge {
			out["tcpproc.process_ns_per_event"] = 0
		}
	}

	// timerq: 65 536 flows re-arming their retransmission deadline, with
	// an Expire sweep every 64 arms (the engine's fireTimers pattern).
	{
		const flows = 65536
		q := timerq.New()
		tcbs := make([]flow.TCB, flows)
		look := func(id flow.ID) *flow.TCB { return &tcbs[id] }
		now := int64(0)
		for i := range tcbs {
			tcbs[i].FlowID = flow.ID(i)
			tcbs[i].RetransAt = int64(200_000 + i*37)
			q.Arm(flow.ID(i), flow.TORetrans, tcbs[i].RetransAt)
		}
		fired := 0
		fire := func(id flow.ID, kind uint8) {
			fired++
			tcbs[id].RetransAt = now + 200_000 + int64(id%1024)*17
			q.Arm(id, kind, tcbs[id].RetransAt)
		}
		ops := n(2_000_000)
		var expireNS int64
		total := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				id := flow.ID(i % flows)
				now += 400
				tcbs[id].RetransAt = now + 150_000 + int64(i%97)*1000
				q.Arm(id, flow.TORetrans, tcbs[id].RetransAt)
				if i%64 == 0 {
					t0 := time.Now()
					q.Expire(now, look, fire)
					expireNS += time.Since(t0).Nanoseconds()
				}
			}
		})
		out["timerq.arm_ns"] = (total*float64(ops) - float64(expireNS)) / float64(ops)
		// Every arm is popped by some later sweep (live or stale), so the
		// sweeps' cost is spread over the arms.
		out["timerq.expire_ns_per_timer"] = float64(expireNS) / float64(ops+fired)
	}

	// wire: one full-MSS TCP segment.
	{
		payload := make([]byte, 1460)
		for i := range payload {
			payload[i] = byte(i)
		}
		pkt := &wire.Packet{
			Kind:       wire.KindTCP,
			Eth:        wire.EthHeader{Src: exp.MACA, Dst: exp.MACB},
			IP:         wire.IPv4Header{Src: exp.AddrA, Dst: exp.AddrB},
			TCP:        wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 1, Ack: 1, Flags: wire.FlagACK, Window: 65535},
			PayloadLen: len(payload), Payload: payload,
		}
		ops := n(200_000)
		var frame []byte
		out["wire.marshal_ns"] = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				b, err := pkt.Marshal()
				if err != nil {
					panic(err)
				}
				frame = b
			}
		})
		out["wire.unmarshal_ns"] = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				p, err := wire.Unmarshal(frame)
				if err != nil {
					panic(err)
				}
				sinkU64 += uint64(p.PayloadLen)
			}
		})
		kb := make([]byte, 1024)
		ops = n(1_000_000)
		out["wire.checksum_ns_per_kb"] = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				sinkU64 += uint64(wire.Checksum(kb, uint32(i)))
			}
		})
		ops = n(2_000_000)
		out["wire.pool_get_put_ns"] = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				p := wire.GetPacket()
				p.PayloadLen = i
				wire.PutPacket(p)
			}
		})
	}
	return out
}
