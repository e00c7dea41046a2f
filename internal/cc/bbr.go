package cc

import "f4t/internal/flow"

func init() { Register("bbr", func() Algorithm { return BBR{} }) }

// CCVars layout for BBR. Everything is integer state in the TCB's spare
// words, per the FPU constraints — the two filters are windowed-by-expiry
// rather than true sliding windows so each fits in a (value, stamp) pair.
const (
	bbState       = iota // packed: mode | cycle<<8 | fullBwCnt<<16
	bbBtlBw              // bottleneck bandwidth estimate, bytes/second
	bbBtlBwStamp         // ns when bbBtlBw last advanced (filter expiry)
	bbMinRTT             // minimum RTT estimate, ns
	bbMinRttStamp        // ns when bbMinRTT was last lowered/refreshed
	bbEpochStart         // ns start of the current delivery-rate epoch
	bbEpochBytes         // bytes acked within the current epoch
	bbFullBw             // bandwidth at the last full-pipe check, bytes/s
	bbPriorCwnd          // cwnd saved on entering ProbeRTT or recovery
	bbPhaseStamp         // ns when the current gain phase / dwell began
)

// BBR modes (the v1 state machine).
const (
	bbrStartup  = 0
	bbrDrain    = 1
	bbrProbeBW  = 2
	bbrProbeRTT = 3
)

// BBR timing and gain constants. The paper-scale datacenter RTTs this
// testbed simulates are microseconds, so the min-RTT window and ProbeRTT
// dwell are scaled down from Linux's 10 s / 200 ms to keep the probe
// cadence proportionate to the millisecond-scale runs.
const (
	bbrMinRttWinNS = 10_000_000 // re-probe the floor every 10 ms
	bbrProbeRttNS  = 200_000    // dwell at 4 MSS for 200 us
	bbrMinEpochNS  = 100_000    // rate-epoch floor before an RTT is known
	bbrBwWinRTTs   = 10         // bandwidth max-filter expiry, in min-RTTs
	bbrMinCwndSegs = 4          // ProbeRTT / absolute window floor
	bbrFullBwCnt   = 3          // plateau epochs that mean "pipe is full"
)

// bbrCycleGain is the ProbeBW pacing-gain cycle applied to the BDP
// (numerators over bbrGainDen): one probing phase, one draining phase,
// six cruise phases.
var bbrCycleGain = [8]uint64{320, 192, 256, 256, 256, 256, 256, 256}

const bbrGainDen = 256

// BBR implements a model-based congestion controller in the shape of
// BBR v1 (Cardwell et al.): instead of reacting to loss it estimates the
// bottleneck bandwidth (windowed-max delivery rate) and the path's
// minimum RTT, and pins cwnd to pacing-gain multiples of the
// bandwidth-delay product. With no pacer in the TX path, the gain cycle
// modulates cwnd directly — the standard cwnd-limited approximation.
// All arithmetic is 64-bit integer (two divisions per rate epoch, one
// per BDP evaluation), giving it the deepest FPU pipeline in the
// registry.
type BBR struct{}

// Name implements Algorithm.
func (BBR) Name() string { return "bbr" }

// PipelineLatency implements Algorithm: the filter compare/update chains
// plus three integer divisions synthesize deeper than Vegas's 68 cycles.
func (BBR) PipelineLatency() int { return 85 }

// Init implements Algorithm.
func (BBR) Init(t *flow.TCB, mss uint32) {
	t.Cwnd = InitialWindow * mss
	t.Ssthresh = InitialSsthresh // never consulted: BBR has no ssthresh
	for i := range t.CCVars {
		t.CCVars[i] = 0
	}
}

func bbrUnpack(w uint64) (mode, cycle, fullCnt uint64) {
	return w & 0xff, (w >> 8) & 0xff, (w >> 16) & 0xff
}

func bbrPack(mode, cycle, fullCnt uint64) uint64 {
	return mode&0xff | (cycle&0xff)<<8 | (fullCnt&0xff)<<16
}

// bbrBDP returns the model's bandwidth-delay product in bytes.
func bbrBDP(v *[flow.CCVarCount]uint64) uint64 {
	return v[bbBtlBw] * v[bbMinRTT] / 1_000_000_000
}

// bbrClamp floors a window target at 4 MSS and bounds it away from
// uint32 overflow.
func bbrClamp(target uint64, mss uint32) uint32 {
	if floor := uint64(bbrMinCwndSegs) * uint64(mss); target < floor {
		target = floor
	}
	if target > 1<<30 {
		target = 1 << 30
	}
	return uint32(target)
}

// OnAck implements Algorithm: update the two path filters, close
// delivery-rate epochs, and drive the Startup/Drain/ProbeBW/ProbeRTT
// mode machine, setting cwnd from the model each step.
func (BBR) OnAck(t *flow.TCB, acked uint32, rttNS, nowNS int64, mss uint32) {
	if t.InRecovery {
		return
	}
	v := &t.CCVars
	mode, cycle, fullCnt := bbrUnpack(v[bbState])

	// Min-RTT filter: lower samples always accepted; an equal sample
	// does NOT refresh the stamp, so a path that never beats the floor
	// re-probes it on the bbrMinRttWinNS cadence (ProbeRTT below). While
	// dwelling in ProbeRTT the queue is drained, so any sample there
	// that undercuts the floor retakes it.
	if rttNS > 0 && (v[bbMinRTT] == 0 || uint64(rttNS) < v[bbMinRTT]) {
		v[bbMinRTT] = uint64(rttNS)
		v[bbMinRttStamp] = uint64(nowNS)
	}
	minRtt := int64(v[bbMinRTT])

	// Delivery-rate epoch: accumulate acked bytes, and once at least one
	// min-RTT (or the pre-sample floor) has elapsed, close the epoch into
	// a bandwidth sample for the max filter. The filter forgets by
	// expiry: a sample below the max only replaces it once the max has
	// gone bbrBwWinRTTs min-RTTs without advancing.
	if v[bbEpochStart] == 0 {
		v[bbEpochStart] = uint64(nowNS)
		v[bbEpochBytes] = 0
	}
	v[bbEpochBytes] += uint64(acked)
	epochLen := nowNS - int64(v[bbEpochStart])
	epochMin := minRtt
	if epochMin < bbrMinEpochNS {
		epochMin = bbrMinEpochNS
	}
	if epochLen >= epochMin {
		bw := v[bbEpochBytes] * 1_000_000_000 / uint64(epochLen)
		if bw >= v[bbBtlBw] {
			v[bbBtlBw] = bw
			v[bbBtlBwStamp] = uint64(nowNS)
		} else if minRtt > 0 && nowNS-int64(v[bbBtlBwStamp]) > bbrBwWinRTTs*minRtt {
			v[bbBtlBw] = bw
			v[bbBtlBwStamp] = uint64(nowNS)
		}
		v[bbEpochStart] = uint64(nowNS)
		v[bbEpochBytes] = 0

		// Full-pipe detection: three epochs without 25 % bandwidth growth
		// ends Startup.
		if mode == bbrStartup {
			if 4*v[bbBtlBw] < 5*v[bbFullBw] {
				fullCnt++
				if fullCnt >= bbrFullBwCnt {
					mode = bbrDrain
				}
			} else {
				v[bbFullBw] = v[bbBtlBw]
				fullCnt = 0
			}
		}
	}

	// ProbeRTT entry: the floor has not been beaten for a full window —
	// shrink to 4 MSS so the queue drains and the next samples see the
	// true propagation delay.
	if mode != bbrProbeRTT && minRtt > 0 &&
		nowNS-int64(v[bbMinRttStamp]) > bbrMinRttWinNS {
		mode = bbrProbeRTT
		if uint64(t.Cwnd) > v[bbPriorCwnd] {
			v[bbPriorCwnd] = uint64(t.Cwnd)
		}
		v[bbPhaseStamp] = uint64(nowNS)
	}

	bdp := bbrBDP(v)

	switch mode {
	case bbrStartup:
		// Exponential growth (double per RTT) until the pipe is full.
		t.Cwnd += acked

	case bbrDrain:
		// Descend to the BDP (never below the 4-MSS floor), mirroring
		// Startup's slope, then cruise.
		target := bdp
		if floor := uint64(bbrMinCwndSegs) * uint64(mss); target < floor {
			target = floor
		}
		if uint64(t.Cwnd) <= target+uint64(acked) {
			t.Cwnd = bbrClamp(target, mss)
			mode, cycle = bbrProbeBW, 0
			v[bbPhaseStamp] = uint64(nowNS)
		} else {
			t.Cwnd -= acked
		}

	case bbrProbeBW:
		// Advance the gain cycle once per min-RTT; cwnd follows
		// gain × BDP.
		if minRtt > 0 && nowNS-int64(v[bbPhaseStamp]) >= minRtt {
			cycle = (cycle + 1) % uint64(len(bbrCycleGain))
			v[bbPhaseStamp] = uint64(nowNS)
		}
		t.Cwnd = bbrClamp(bdp*bbrCycleGain[cycle]/bbrGainDen, mss)

	case bbrProbeRTT:
		t.Cwnd = bbrMinCwndSegs * mss
		if nowNS-int64(v[bbPhaseStamp]) >= bbrProbeRttNS {
			// Dwell over: the floor is considered re-validated for a
			// fresh window; restore the saved window and resume.
			v[bbMinRttStamp] = uint64(nowNS)
			restored := v[bbPriorCwnd]
			v[bbPriorCwnd] = 0
			if bdp > restored {
				restored = bdp
			}
			t.Cwnd = bbrClamp(restored, mss)
			if fullCnt >= bbrFullBwCnt {
				mode, cycle = bbrProbeBW, 0
			} else {
				mode = bbrStartup
			}
			v[bbPhaseStamp] = uint64(nowNS)
		}
	}
	v[bbState] = bbrPack(mode, cycle, fullCnt)
}

// OnLoss implements Algorithm: BBR does not multiplicatively decrease.
// It remembers the pre-recovery window (restored on exit) and conserves
// at most what is in flight meanwhile; the model, not the loss, sets the
// window going forward.
func (BBR) OnLoss(t *flow.TCB, nowNS int64, mss uint32) {
	if uint64(t.Cwnd) > t.CCVars[bbPriorCwnd] {
		t.CCVars[bbPriorCwnd] = uint64(t.Cwnd)
	}
	inFlight := t.InFlight()
	if inFlight < t.Cwnd {
		t.Cwnd = inFlight
	}
	if t.Cwnd < bbrMinCwndSegs*mss {
		t.Cwnd = bbrMinCwndSegs * mss
	}
}

// OnRecoveryExit implements Algorithm: restore the saved window (the
// other programs collapse to ssthresh here; BBR has none).
func (BBR) OnRecoveryExit(t *flow.TCB, mss uint32) {
	if prior := t.CCVars[bbPriorCwnd]; prior > uint64(t.Cwnd) {
		t.Cwnd = bbrClamp(prior, mss)
	}
	t.CCVars[bbPriorCwnd] = 0
}

// OnTimeout implements Algorithm: collapse to one segment like everyone
// else (RFC 6298 conservatism), but keep the model state — the next acks
// snap the window back to the model's target rather than slow-starting.
func (BBR) OnTimeout(t *flow.TCB, nowNS int64, mss uint32) {
	if uint64(t.Cwnd) > t.CCVars[bbPriorCwnd] {
		t.CCVars[bbPriorCwnd] = uint64(t.Cwnd)
	}
	t.Cwnd = mss
}
