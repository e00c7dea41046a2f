package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"f4t/internal/sim"
)

// benchFabric is the benchmark's sim.Fabric decorator over one serial
// kernel. It does two jobs, both from outside the simulator:
//
//   - Phase recognition for rigs that run inside one exp call
//     (exp.ChurnOn): a Run of exactly `sustain` cycles is the measured
//     window and is handed to onWindow, which slices and times it.
//   - In the traced run (ht != nil), every registered component is wrapped
//     in a timing ticker and every cross-island post goes through a
//     sampling poster, so Tick, NextWork and link-sink time can be
//     attributed per layer.
type benchFabric struct {
	k        *sim.Kernel
	ht       *hostTracer
	sustain  int64
	onWindow func(run func(n int64))
}

func (f *benchFabric) Now() int64   { return f.k.Now() }
func (f *benchFabric) NowNS() int64 { return f.k.NowNS() }
func (f *benchFabric) Stop()        { f.k.Stop() }
func (f *benchFabric) RunUntil(pred func() bool, budget int64) bool {
	return f.k.RunUntil(pred, budget)
}

func (f *benchFabric) Run(n int64) {
	if f.sustain != 0 && n == f.sustain && f.onWindow != nil {
		f.onWindow(f.k.Run)
		return
	}
	f.k.Run(n)
}

func (f *benchFabric) IslandKernel(int) *sim.Kernel { return f.k }

func (f *benchFabric) RegisterOn(_ int, t sim.Ticker) {
	if f.ht == nil {
		f.k.Register(t)
		return
	}
	f.k.Register(f.ht.wrap(t))
}

func (f *benchFabric) CrossPost(src, dst int, minLatency int64) sim.Poster {
	if f.ht == nil {
		return f.k
	}
	return &timedPoster{ht: f.ht, p: f.k}
}

// hostSpan is one host-time span of the traced run: a sampled kernel
// iteration ("sim.step") or one component call inside it.
type hostSpan struct {
	Name   string
	Start  int64 // wall ns since the tracer was created
	End    int64
	ID     int64
	Parent int64 // 0 for a sim.step
}

const (
	burstGapMean = 64     // sampled iterations are ~1 in 64 of all iterations
	burstLen     = 8      // single-target iterations per burst, after one warm-up iteration
	blockLen     = 32     // consecutive untouched iterations timed as one block reading
	fullEvery    = 16     // one burst in 16 ends with an iteration timed call by call, for the span file
	maxHostSpans = 60_000 // in-memory span cap; the rest are counted as dropped
)

// What a sampled iteration times. Timing every call of one iteration makes
// that iteration several times slower than its neighbours (a dozen clock
// reads in ~500 ns of work), and a clock read that happens once in 64
// iterations runs cold. So sampled iterations come in short bursts behind a
// warm-up iteration, and each times exactly one thing:
//
//   - a block: blockLen consecutive iterations as one reading, the
//     components on their untimed path, taken between bursts. Its mean is
//     the cost of an iteration with the timer's own cost spread over
//     blockLen of them; the closure check holds it against the wall clock.
//   - one component's Tick, or one component's NextWork.
//   - targetNull: an empty timed section in the first component's Tick,
//     which is what the timer itself costs in place; it is taken off every
//     other reading. (What the clock reads do to the caches of the code
//     they bracket is not in it, so component readings still run some
//     10-20 ns high and the kernel's residual share correspondingly low.)
//
// An iteration timed call by call (modeFull) only feeds the span file.
const (
	targetNull  = iota
	targetComp0 // + 2*idx for Tick, + 2*idx + 1 for NextWork
)

const (
	modeOff    = iota // untimed path (also while a block reading is in progress)
	modeWarm          // a burst's first iteration: read the clock, keep nothing
	modeSingle        // one component call is timed
	modeFull          // every call is timed and recorded as a span
)

// hostTracer times a sample of kernel iterations from outside the kernel.
// An iteration runs from the first component's NextWork (the kernel's skip
// scan) to the last component's Tick, so it covers the scan, the skip, the
// timer callbacks and every tick of one Kernel.Step.
type hostTracer struct {
	base  time.Time
	comps []*timedTicker
	last  *timedTicker

	active    bool // true only inside the measured window
	iterOpen  bool
	mode      int
	target    int
	blockLeft int // iterations left in the block reading in progress
	gap       int
	burst     int // sampled iterations left in the current burst
	lcg       uint32

	iters, sampled, bursts int64
	turn                   int64
	iterStart              int64
	block, null            readings

	posts     int64
	sink      readings
	timedCall func(any)

	curParent, nextID int64
	spans             []hostSpan
	spansDropped      int64
}

func newHostTracer() *hostTracer {
	ht := &hostTracer{base: time.Now(), lcg: 0x9e3779b9, gap: 1, nextID: 1}
	ht.timedCall = func(a any) {
		b := a.(*postBox)
		t0 := ht.now()
		b.call(b.arg)
		d := ht.now() - t0
		ht.sink.add(d)
		ht.sink.n++
		if ht.mode == modeFull {
			ht.span("netsim.sink", t0, t0+d)
		}
	}
	return ht
}

func (ht *hostTracer) now() int64 { return int64(time.Since(ht.base)) }

// layerOf maps a component's Go type to the module it is charged to.
func layerOf(t sim.Ticker) string {
	name := fmt.Sprintf("%T", t)
	switch {
	case strings.Contains(name, "engine."):
		return "engine"
	case strings.Contains(name, "host."):
		return "host"
	case strings.Contains(name, "apps."):
		return "apps"
	case strings.Contains(name, "exp.churn"):
		// exp.ChurnOn's nodes and driver do nothing but call stack.Endpoint.
		return "stack"
	}
	return "other"
}

// wrap returns the timing decorator for t. It implements sim.Sleeper
// exactly when t does: an opaque wrapper around a Sleeper would pin the
// kernel to per-cycle stepping.
func (ht *hostTracer) wrap(t sim.Ticker) sim.Ticker {
	tt := &timedTicker{ht: ht, inner: t, layer: layerOf(t), idx: len(ht.comps)}
	name := tt.layer + "." + strings.TrimPrefix(fmt.Sprintf("%T", t), "*")
	tt.tickName, tt.nextName = name+".Tick", name+".NextWork"
	ht.comps = append(ht.comps, tt)
	ht.last = tt
	if s, ok := t.(sim.Sleeper); ok {
		tt.sl = s
		return &timedSleeper{tt}
	}
	return tt
}

func (ht *hostTracer) start() { ht.active = true }

func (ht *hostTracer) stop() {
	ht.active, ht.iterOpen, ht.blockLeft, ht.mode = false, false, 0, modeOff
}

// begin opens an iteration and decides what, if anything, it times.
func (ht *hostTracer) begin() {
	ht.iterOpen = true
	ht.iters++
	if ht.blockLeft > 0 {
		return // inside a block reading
	}
	if ht.burst == 0 {
		ht.gap--
		if ht.gap > 0 {
			return
		}
		// Irregular gaps (mean burstGapMean iterations per sampled one) so
		// the sample cannot alias with a rig's own period (the churn
		// driver acts every 256 cycles).
		ht.lcg = ht.lcg*1664525 + 1013904223
		ht.gap = (burstGapMean/2 + 1 + int(ht.lcg>>26)) * burstLen
		ht.bursts++
		if ht.bursts%2 == 0 {
			// A block reading stands alone, away from the bursts, so
			// the iterations it times are as undisturbed as any.
			ht.sampled += blockLen
			ht.startBlock()
			return
		}
		ht.burst = burstLen
		ht.mode = modeWarm
		return
	}
	ht.burst--
	ht.sampled++
	if ht.burst == 0 && ht.bursts%(2*fullEvery) == 1 {
		ht.mode = modeFull
		ht.curParent = ht.nextID
		ht.nextID++
		ht.iterStart = ht.now()
		return
	}
	ht.target = int(ht.turn % int64(targetComp0+2*len(ht.comps)))
	ht.turn++
	ht.mode = modeSingle
	switch ht.target {
	case targetNull:
		ht.null.n++
	default:
		c := ht.comps[(ht.target-targetComp0)/2]
		if (ht.target-targetComp0)%2 == 0 {
			c.tick.n++
		} else {
			c.next.n++
		}
	}
}

// startBlock starts one reading over the next blockLen iterations, which
// run their components untimed, as every unsampled iteration does.
func (ht *hostTracer) startBlock() {
	ht.block.n++
	ht.mode, ht.blockLeft = modeOff, blockLen
	ht.iterStart = ht.now()
}

func (ht *hostTracer) end() {
	ht.iterOpen = false
	if ht.blockLeft > 0 {
		if ht.blockLeft--; ht.blockLeft == 0 {
			ht.block.add(ht.now() - ht.iterStart)
		}
		return
	}
	if ht.mode == modeFull {
		if len(ht.spans) < maxHostSpans {
			ht.spans = append(ht.spans, hostSpan{Name: "sim.step", Start: ht.iterStart, End: ht.now(), ID: ht.curParent})
		} else {
			ht.spansDropped++
		}
	}
	ht.mode = modeOff
}

// span records one child of the current call-by-call iteration.
func (ht *hostTracer) span(name string, start, end int64) {
	if len(ht.spans) >= maxHostSpans {
		ht.spansDropped++
		return
	}
	ht.spans = append(ht.spans, hostSpan{Name: name, Start: start, End: end, ID: ht.nextID, Parent: ht.curParent})
	ht.nextID++
}

// timedTicker decorates one registered component.
type timedTicker struct {
	ht    *hostTracer
	inner sim.Ticker
	sl    sim.Sleeper
	layer string
	idx   int

	tickName, nextName string // span names of the call-by-call iterations

	// Readings from the iterations that targeted this component's Tick /
	// NextWork. A targeted NextWork the kernel's scan never reached leaves
	// no reading but still counts as an iteration.
	tick, next readings
}

func (t *timedTicker) Tick(cycle int64) {
	ht := t.ht
	if !ht.active {
		t.inner.Tick(cycle)
		return
	}
	if t.idx == 0 && !ht.iterOpen {
		ht.begin() // no skip scan ran this iteration
	}
	switch {
	case ht.mode == modeOff:
		t.inner.Tick(cycle)
	case ht.mode == modeFull:
		t0 := ht.now()
		t.inner.Tick(cycle)
		ht.span(t.tickName, t0, ht.now())
	case ht.mode == modeWarm:
		if t.idx == 0 {
			sinkU64 += uint64(ht.now() - ht.now())
		}
		t.inner.Tick(cycle)
	case ht.target == targetComp0+2*t.idx:
		t0 := ht.now()
		t.inner.Tick(cycle)
		t.tick.add(ht.now() - t0)
	case ht.target == targetNull && t.idx == 0:
		t0 := ht.now()
		ht.null.add(ht.now() - t0)
		t.inner.Tick(cycle)
	default:
		t.inner.Tick(cycle)
	}
	if t == ht.last {
		ht.end()
	}
}

// timedSleeper is the decorator for components that implement sim.Sleeper.
type timedSleeper struct{ *timedTicker }

func (t *timedSleeper) NextWork(now int64) int64 {
	ht := t.ht
	if !ht.active {
		return t.sl.NextWork(now)
	}
	if t.idx == 0 {
		ht.begin()
	}
	switch {
	case ht.mode == modeFull:
		t0 := ht.now()
		w := t.sl.NextWork(now)
		ht.span(t.nextName, t0, ht.now())
		return w
	case ht.mode == modeSingle && ht.target == targetComp0+2*t.idx+1:
		t0 := ht.now()
		w := t.sl.NextWork(now)
		t.next.add(ht.now() - t0)
		return w
	}
	return t.sl.NextWork(now)
}

// timedPoster passes cross-island posts (link deliveries) to the kernel
// and routes one in 64 through a timed callback. The timer key the kernel
// stamps is the same either way, so firing order is unchanged.
type timedPoster struct {
	ht *hostTracer
	p  sim.Poster
}

type postBox struct {
	call func(any)
	arg  any
}

func (tp *timedPoster) At(cycle int64, fn func()) { tp.p.At(cycle, fn) }

func (tp *timedPoster) AtCall(cycle int64, call func(arg any), arg any) {
	ht := tp.ht
	if ht.active {
		ht.posts++
		if ht.posts%burstGapMean == 0 {
			tp.p.AtCall(cycle, ht.timedCall, &postBox{call, arg})
			return
		}
	}
	tp.p.AtCall(cycle, call, arg)
}

// readings collects the timed sections of one sampling target.
type readings struct {
	v []int64 // wall ns of each timed section
	n int64   // iterations that had this target (the divisor of a per-step mean)
}

func (r *readings) add(d int64) { r.v = append(r.v, d) }

// perStep is the target's mean cost per targeted iteration, with timer ns
// taken off every reading. Readings beyond 20x the 99.9th percentile are
// left out with their iteration: on a shared host a timed section now and
// then contains a millisecond of somebody else's work, and one such reading
// among 20 000 would move a 100 ns mean by half.
func (r *readings) perStep(timer float64) (mean float64, hiccups int) {
	if r.n == 0 || len(r.v) == 0 {
		return 0, 0
	}
	s := append([]int64{}, r.v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	cut := 20 * s[len(s)-1-len(s)/1000]
	var sum float64
	for _, d := range s {
		if d > cut {
			hiccups++
			continue
		}
		sum += float64(d) - timer
	}
	if sum < 0 {
		sum = 0
	}
	return sum / float64(r.n-int64(hiccups)), hiccups
}

// layerTimes is the traced run's host-time attribution, per stepped cycle.
type layerTimes struct {
	tickNS     map[string]float64 // per layer
	nextworkNS float64
	sinkNS     float64
	kernelNS   float64 // stepNS minus everything above: the kernel's own loop, heap and timer callbacks
	stepNS     float64 // mean whole iteration, from the block readings
	timerNS    float64 // in-situ cost of one timed section, already subtracted
	hiccups    int     // readings left out as interference
}

// attribute turns the readings into per-step means with the timer's
// in-situ cost taken out. steps is the window's stepped-cycle count.
func (ht *hostTracer) attribute(steps int64) layerTimes {
	lt := layerTimes{tickNS: map[string]float64{}}
	if ht.block.n == 0 || steps == 0 {
		return lt
	}
	mean := func(r *readings, timer float64) float64 {
		v, h := r.perStep(timer)
		lt.hiccups += h
		return v
	}
	lt.stepNS = mean(&ht.block, 0) / blockLen
	lt.timerNS = mean(&ht.null, 0)
	var ticks float64
	for _, c := range ht.comps {
		v := mean(&c.tick, lt.timerNS)
		lt.tickNS[c.layer] += v
		ticks += v
		lt.nextworkNS += mean(&c.next, lt.timerNS)
	}
	lt.sinkNS = mean(&ht.sink, lt.timerNS) * float64(ht.posts) / float64(steps)
	lt.kernelNS = lt.stepNS - ticks - lt.nextworkNS - lt.sinkNS
	if lt.kernelNS < 0 {
		lt.kernelNS = 0
	}
	return lt
}
