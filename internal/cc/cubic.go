package cc

import "f4t/internal/flow"

func init() { Register("cubic", func() Algorithm { return Cubic{} }) }

// CCVars layout for CUBIC. All values are integers; windows are tracked
// in segments to keep the fixed-point ranges small, exactly as a hardware
// implementation would.
const (
	cuWMax        = iota // window at last loss, segments
	cuEpochStart         // ns timestamp when the current epoch began (0 = none)
	cuK                  // K in milliseconds
	cuOrigin             // origin window (wMax or cwnd at epoch start), segments
	cuAckCnt             // ACKed segments since epoch start (for TCP-friendly region)
	cuLastDecWMax        // previous wMax, for fast convergence
)

// CUBIC constants from RFC 8312: C = 0.4, beta = 0.7, expressed as exact
// integer ratios.
const (
	cubicCNum, cubicCDen       = 4, 10
	cubicBetaNum, cubicBetaDen = 717, 1024 // Linux's 0.70019...
)

// Cubic implements RFC 8312 CUBIC with integer fixed-point arithmetic
// (cube and cube-root circuits). Its FPU pipeline is 41 cycles (§5.4).
type Cubic struct{}

// Name implements Algorithm.
func (Cubic) Name() string { return "cubic" }

// PipelineLatency implements Algorithm.
func (Cubic) PipelineLatency() int { return 41 }

// Init implements Algorithm.
func (Cubic) Init(t *flow.TCB, mss uint32) {
	t.Cwnd = InitialWindow * mss
	t.Ssthresh = 0x7FFFFFFF
	for i := range t.CCVars {
		t.CCVars[i] = 0
	}
}

// OnAck implements Algorithm: slow start below ssthresh, then the CUBIC
// window function W(t) = C*(t-K)^3 + Wmax with a TCP-friendly floor.
func (Cubic) OnAck(t *flow.TCB, acked uint32, rttNS, nowNS int64, mss uint32) {
	if t.InRecovery {
		return
	}
	if t.Cwnd < t.Ssthresh {
		inc := acked
		if inc > mss {
			inc = mss
		}
		t.Cwnd += inc
		return
	}
	cwndSeg := int64(t.Cwnd / mss)
	if cwndSeg < 1 {
		cwndSeg = 1
	}
	if t.CCVars[cuEpochStart] == 0 {
		t.CCVars[cuEpochStart] = uint64(nowNS)
		t.CCVars[cuAckCnt] = 0
		wMax := int64(t.CCVars[cuWMax])
		if wMax < cwndSeg {
			// We are already past the previous maximum: restart the cubic
			// origin here so growth is convex from the current window.
			t.CCVars[cuWMax] = uint64(cwndSeg)
			wMax = cwndSeg
			t.CCVars[cuK] = 0
		} else {
			// K = cbrt((Wmax - cwnd)/C) seconds, computed in ms fixed point:
			// K_ms = cbrt((Wmax-cwnd) * (Den/Num) * 1e9).
			delta := uint64(wMax - cwndSeg)
			t.CCVars[cuK] = CubeRoot(delta * cubicCDen * 1_000_000_000 / cubicCNum)
		}
		t.CCVars[cuOrigin] = t.CCVars[cuWMax]
	}
	t.CCVars[cuAckCnt] += uint64((acked + mss - 1) / mss)

	// Elapsed time since epoch plus one RTT: CUBIC targets W(t+RTT).
	tMS := (nowNS - int64(t.CCVars[cuEpochStart]) + rttDefault(rttNS, t)) / 1_000_000
	d := tMS - int64(t.CCVars[cuK])
	// W(t) in segments: origin + C * d^3 where d is in ms, so scale by 1e9.
	target := int64(t.CCVars[cuOrigin]) + cubicCNum*Cube(d)/(cubicCDen*1_000_000_000)

	// TCP-friendly region (RFC 8312 §4.2): W_est = Wmax*beta +
	// 3*(1-beta)/(1+beta) * t/RTT; with beta=0.7 the slope is ~0.529
	// segments per RTT. Elapsed RTTs are approximated by ACKed segments
	// divided by the window (one window of ACKs ≈ one RTT).
	wEst := int64(t.CCVars[cuWMax])*cubicBetaNum/cubicBetaDen +
		529*int64(t.CCVars[cuAckCnt])/(1000*cwndSeg)
	if wEst > target {
		target = wEst
	}

	if target > cwndSeg {
		// Spread the increase over the ACKs of one window:
		// cwnd += (target - cwnd)/cwnd segments per ACK.
		incSeg := target - cwndSeg
		inc := uint32(int64(mss) * incSeg / cwndSeg)
		if inc == 0 {
			inc = 1
		}
		if inc > mss {
			inc = mss // at most one segment per ACK outside slow start
		}
		t.Cwnd += inc
	} else {
		// Minimal probing growth in the plateau region.
		inc := mss * mss / (100 * t.Cwnd)
		if inc == 0 {
			inc = 1
		}
		t.Cwnd += inc
	}
}

func rttDefault(rttNS int64, t *flow.TCB) int64 {
	if rttNS > 0 {
		return rttNS
	}
	if t.SRTT > 0 {
		return t.SRTT
	}
	return 1_000_000 // 1 ms placeholder before the first sample
}

// OnLoss implements Algorithm: multiplicative decrease by beta with fast
// convergence (RFC 8312 §4.6).
func (Cubic) OnLoss(t *flow.TCB, nowNS int64, mss uint32) {
	cwndSeg := uint64(t.Cwnd / mss)
	if cwndSeg < 1 {
		cwndSeg = 1
	}
	prev := t.CCVars[cuWMax]
	if cwndSeg < prev {
		// Fast convergence: release bandwidth faster when the loss point
		// is dropping.
		t.CCVars[cuWMax] = cwndSeg * (cubicBetaDen + cubicBetaNum) / (2 * cubicBetaDen)
	} else {
		t.CCVars[cuWMax] = cwndSeg
	}
	t.CCVars[cuLastDecWMax] = prev
	t.CCVars[cuEpochStart] = 0
	newCwnd := uint32(cwndSeg) * mss * cubicBetaNum / cubicBetaDen
	if newCwnd < MinSsthresh(mss) {
		newCwnd = MinSsthresh(mss)
	}
	t.Ssthresh = newCwnd
	t.Cwnd = newCwnd + 3*mss
}

// OnRecoveryExit implements Algorithm.
func (Cubic) OnRecoveryExit(t *flow.TCB, mss uint32) {
	t.Cwnd = t.Ssthresh
}

// OnTimeout implements Algorithm.
func (Cubic) OnTimeout(t *flow.TCB, nowNS int64, mss uint32) {
	cwndSeg := uint64(t.Cwnd / mss)
	if cwndSeg < 1 {
		cwndSeg = 1
	}
	t.CCVars[cuWMax] = cwndSeg
	t.CCVars[cuEpochStart] = 0
	ss := uint32(cwndSeg) * mss * cubicBetaNum / cubicBetaDen
	if ss < MinSsthresh(mss) {
		ss = MinSsthresh(mss)
	}
	t.Ssthresh = ss
	t.Cwnd = mss
}
