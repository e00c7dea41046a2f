package exp

import (
	"fmt"
	"testing"

	"f4t/internal/apps"
	"f4t/internal/cpu"
	"f4t/internal/host"
	"f4t/internal/sim"
)

// scanWrk is apps.Wrk as it was before the ready set: Tick and NextWork
// walk every flow of every thread on every stepped cycle. It is kept
// here, beside the rigs it runs on, as the oracle the ready set must
// match decision for decision.
type scanWrk struct {
	k        *sim.Kernel
	threads  []host.Thread
	d        *scanDialer
	flows    [][]*scanWrkFlow
	reqSize  int
	respSize int
	costs    cpu.Costs

	Responses sim.Counter
	Latency   sim.Histogram
}

type scanWrkFlow struct {
	conn     host.Conn
	awaiting bool
	sentAt   int64
	got      int
}

func newScanWrk(k *sim.Kernel, threads []host.Thread, remoteIdx int, port uint16, reqSize, respSize, flowsPerThread int, costs cpu.Costs) *scanWrk {
	w := &scanWrk{k: k, threads: threads, reqSize: reqSize, respSize: respSize, costs: costs, flows: make([][]*scanWrkFlow, len(threads))}
	w.d = &scanDialer{threads: threads, remoteIdx: remoteIdx, port: port, want: flowsPerThread,
		conns: make([][]host.Conn, len(threads)), estPtr: make([]int, len(threads)),
		onOpen: func(i int, conn host.Conn) {
			w.flows[i] = append(w.flows[i], &scanWrkFlow{conn: conn})
		}}
	return w
}

func (w *scanWrk) Ready() bool { return w.d.allEstablished() }

func (w *scanWrk) Tick(int64) {
	w.d.tick()
	now := w.k.NowNS()
	for i, th := range w.threads {
		th.Poll()
		core := th.Core()
		for _, f := range w.flows[i] {
			if !f.conn.Established() {
				continue
			}
			if f.awaiting {
				if f.conn.Available() > 0 && core.Free() {
					f.got += f.conn.TryRecv(w.respSize - f.got)
					if f.got >= w.respSize {
						f.awaiting = false
						f.got = 0
						w.Responses.Inc()
						w.Latency.Observe(now - f.sentAt)
					}
				}
				continue
			}
			if !core.Free() {
				break
			}
			core.Run(cpu.CatApp, w.costs.GenRequest)
			if f.conn.SendQueued(w.reqSize, nil) > 0 {
				f.awaiting = true
				f.sentAt = now
			}
		}
	}
}

func (w *scanWrk) NextWork(now int64) int64 {
	if !w.d.complete() {
		return now + 1
	}
	next := sim.Dormant
	for i, th := range w.threads {
		if th.EventsPending() {
			return now + 1
		}
		for _, f := range w.flows[i] {
			if !f.conn.Established() || (f.awaiting && f.conn.Available() == 0) {
				continue
			}
			if nf := th.Core().NextFree(now); nf <= now+1 {
				return now + 1
			} else if nf < next {
				next = nf
			}
			break
		}
	}
	return next
}

// scanDialer is the paced dialer as it was before it latched: tick and
// complete walk every thread on every cycle.
type scanDialer struct {
	threads   []host.Thread
	remoteIdx int
	port      uint16
	want      int
	conns     [][]host.Conn
	estPtr    []int
	onOpen    func(threadIdx int, c host.Conn)
}

func (d *scanDialer) tick() {
	for i, th := range d.threads {
		for d.estPtr[i] < len(d.conns[i]) && d.conns[i][d.estPtr[i]].Established() {
			d.estPtr[i]++
		}
		for n := 0; n < 2 && len(d.conns[i]) < d.want; n++ {
			if len(d.conns[i])-d.estPtr[i] >= 96 {
				break
			}
			c := th.Dial(d.remoteIdx, d.port)
			if c == nil {
				break
			}
			d.conns[i] = append(d.conns[i], c)
			d.onOpen(i, c)
		}
	}
}

func (d *scanDialer) complete() bool {
	for i := range d.conns {
		if len(d.conns[i]) < d.want {
			return false
		}
	}
	return true
}

func (d *scanDialer) allEstablished() bool {
	for i := range d.threads {
		if len(d.conns[i]) < d.want {
			return false
		}
		for _, c := range d.conns[i] {
			if !c.Established() {
				return false
			}
		}
	}
	return true
}

// wrkOracleRun loads the one-core, 64-flow Nginx rig with either Wrk
// and summarizes every decision-bearing output: client responses and
// latency, server requests, and how the kernel skipped.
func wrkOracleRun(stackKind string, scan bool, cycles int64) string {
	costs := cpu.DefaultCosts()
	k := sim.New()
	r := newNginxRig(k, stackKind, 1, costs)
	perThread := nginxPerThread(64)
	var app sim.Ticker
	var ready func() bool
	var resp *sim.Counter
	var lat *sim.Histogram
	if scan {
		w := newScanWrk(k, r.clientThreads, 0, nginxPort, 128, 256, perThread, costs)
		app, ready, resp, lat = w, w.Ready, &w.Responses, &w.Latency
	} else {
		w := apps.NewWrk(k, r.clientThreads, 0, nginxPort, 128, 256, perThread, costs)
		app, ready, resp, lat = w, w.Ready, &w.Responses, &w.Latency
	}
	k.Register(app)
	if !RunUntilCoarse(k, ready, 20_000, 20_000_000) {
		return "NOT-READY"
	}
	k.Run(cycles)
	return fmt.Sprintf("c=%d responses=%d lat_n=%d med=%d p99=%d served=%d skipped=%d skips=%d",
		k.Now(), resp.Total(), lat.Count(), lat.Median(), lat.P99(), r.srv.Requests.Total(),
		k.SkippedCycles(), k.Skips())
}

// TestWrkMatchesScanOracle: the ready-set Wrk and the per-flow scan it
// replaced make the same decisions on both substrates — the same
// responses at the same latencies, the same server work, and the same
// skipped spans (so the new NextWork is exact, not merely safe).
func TestWrkMatchesScanOracle(t *testing.T) {
	const cycles = 2_000_000
	for _, stackKind := range []string{"f4t", "linux"} {
		t.Run(stackKind, func(t *testing.T) {
			want := wrkOracleRun(stackKind, true, cycles)
			got := wrkOracleRun(stackKind, false, cycles)
			if got != want {
				t.Fatalf("ready set diverges from the scan:\n  ready set: %s\n  scan:      %s", got, want)
			}
			t.Log(got)
		})
	}
}
